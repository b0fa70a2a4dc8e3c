package deanon

// countTable is the shard-local fingerprint counter: an open-addressed,
// linear-probed table with 8-byte keys and 1-byte saturating counts.
// Two properties of the workload make it much cheaper than a Go map:
//
//   - Fingerprints are already FNV-1a outputs, uniformly mixed, so the
//     low bits index the table directly — no per-access re-hashing.
//   - The study only distinguishes count 0 / 1 / ≥2, so a uint8
//     saturating at 2 replaces a uint32, and the whole table is 9 bytes
//     per slot (vs ~17 bytes per entry in a map[Fingerprint]uint32
//     bucket array, before overflow buckets).
//
// Shard routing uses the fingerprint's HIGH bits (ShardedIncStudy), the
// probe sequence its LOW bits, so the two never interfere.
//
// The all-zero fingerprint doubles as the empty-slot marker; its count
// lives out-of-band in zeroCount.
type countTable struct {
	keys   []Fingerprint
	counts []uint8
	mask   uint64
	// used is the number of occupied slots (excluding the zero key).
	used      int
	zeroCount uint8
	// uniques is the number of fingerprints currently at count exactly 1,
	// maintained incrementally by incrCount so reading it is O(1) instead
	// of an O(capacity) table scan per Results call.
	uniques int
}

const (
	// countSaturated is the ceiling of the saturating counters: IG only
	// distinguishes count 0 / 1 / ≥2.
	countSaturated = 2
	// countTableMinCap is the initial capacity (power of two).
	countTableMinCap = 256
	// countTable grows when used exceeds cap×13/16 (≈81% load).
	countTableLoadNum = 13
	countTableLoadDen = 16
)

func newCountTable() *countTable {
	return &countTable{
		keys:   make([]Fingerprint, countTableMinCap),
		counts: make([]uint8, countTableMinCap),
		mask:   countTableMinCap - 1,
	}
}

// countTablePool recycles tables across studies. A Figure 3 run over
// the full history grows each shard table to megabytes; a serving layer
// that rebuilds studies on a refresh cadence would otherwise churn that
// allocation (and the GC) on every cycle.
var countTablePool = struct {
	mu   chan struct{} // 1-slot semaphore; avoids sync.Pool's per-P drift
	free []*countTable
}{mu: make(chan struct{}, 1)}

// maxPooledSlots bounds the capacity of tables kept in the pool so one
// pathological study can't pin an arbitrarily large table forever.
const maxPooledSlots = 1 << 21

// getCountTable returns a zeroed table, reusing pooled capacity.
func getCountTable() *countTable {
	countTablePool.mu <- struct{}{}
	n := len(countTablePool.free)
	var t *countTable
	if n > 0 {
		t = countTablePool.free[n-1]
		countTablePool.free[n-1] = nil
		countTablePool.free = countTablePool.free[:n-1]
	}
	<-countTablePool.mu
	if t == nil {
		return newCountTable()
	}
	return t
}

// release resets the table and returns it to the pool. The caller must
// not use it afterwards.
func (t *countTable) release() {
	if len(t.keys) > maxPooledSlots {
		return
	}
	t.reset()
	countTablePool.mu <- struct{}{}
	countTablePool.free = append(countTablePool.free, t)
	<-countTablePool.mu
}

// reset zeroes the table in place, keeping its capacity. The two
// range-clears compile to memclr.
func (t *countTable) reset() {
	for i := range t.keys {
		t.keys[i] = 0
	}
	for i := range t.counts {
		t.counts[i] = 0
	}
	t.used = 0
	t.zeroCount = 0
	t.uniques = 0
}

// incr bumps fp's saturating counter.
func (t *countTable) incr(fp Fingerprint) { t.incrCount(fp) }

// incrCount bumps fp's saturating counter and returns the count the
// fingerprint had BEFORE the increment (0 = first sight, 1 = was unique,
// countSaturated = already saturated). The pre-count lets an incremental
// consumer maintain a running unique-count in O(1): 0 means "became
// unique", 1 means "stopped being unique".
func (t *countTable) incrCount(fp Fingerprint) uint8 {
	if fp == 0 {
		prev := t.zeroCount
		if t.zeroCount < countSaturated {
			t.zeroCount++
		}
		switch prev {
		case 0:
			t.uniques++
		case 1:
			t.uniques--
		}
		return prev
	}
	i := uint64(fp) & t.mask
	for {
		switch t.keys[i] {
		case fp:
			prev := t.counts[i]
			if t.counts[i] < countSaturated {
				t.counts[i]++
			}
			if prev == 1 {
				t.uniques--
			}
			return prev
		case 0:
			t.keys[i] = fp
			t.counts[i] = 1
			t.used++
			t.uniques++
			if t.used*countTableLoadDen > len(t.keys)*countTableLoadNum {
				t.grow()
			}
			return 0
		}
		i = (i + 1) & t.mask
	}
}

// get returns fp's saturating count (0 = never seen, 1 = unique,
// countSaturated = seen at least twice). O(1) expected.
func (t *countTable) get(fp Fingerprint) uint8 {
	if fp == 0 {
		return t.zeroCount
	}
	i := uint64(fp) & t.mask
	for {
		switch t.keys[i] {
		case fp:
			return t.counts[i]
		case 0:
			return 0
		}
		i = (i + 1) & t.mask
	}
}

// clone deep-copies the table — the copy-on-publish step behind the
// serving layer's epoch snapshots. The copy is two slice memmoves, so a
// snapshot costs O(capacity) with no rehashing.
func (t *countTable) clone() *countTable {
	// make-then-copy (not make inside the literal) compiles to
	// makeslicecopy, which skips zeroing memory the copy overwrites —
	// clone is the dominant cost of every snapshot publish.
	keys := make([]Fingerprint, len(t.keys))
	copy(keys, t.keys)
	counts := make([]uint8, len(t.counts))
	copy(counts, t.counts)
	return &countTable{
		keys:      keys,
		counts:    counts,
		mask:      t.mask,
		used:      t.used,
		zeroCount: t.zeroCount,
		uniques:   t.uniques,
	}
}

// grow doubles the table and reinserts every occupied slot.
func (t *countTable) grow() {
	oldKeys, oldCounts := t.keys, t.counts
	t.keys = make([]Fingerprint, 2*len(oldKeys))
	t.counts = make([]uint8, 2*len(oldCounts))
	t.mask = uint64(len(t.keys) - 1)
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := uint64(k) & t.mask
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i] = k
		t.counts[i] = oldCounts[j]
	}
}

// unique returns the number of fingerprints seen exactly once —
// maintained incrementally by incrCount, so reading it is O(1).
func (t *countTable) unique() int { return t.uniques }

// uniqueScan recomputes unique() from the slots; the O(capacity)
// reference implementation the incremental counter is tested against.
func (t *countTable) uniqueScan() int {
	n := 0
	for i, k := range t.keys {
		if k != 0 && t.counts[i] == 1 {
			n++
		}
	}
	if t.zeroCount == 1 {
		n++
	}
	return n
}

// distinct returns the number of distinct fingerprints in the table.
func (t *countTable) distinct() int {
	n := t.used
	if t.zeroCount > 0 {
		n++
	}
	return n
}

// bytes reports the table's resident footprint (keys + counts arrays).
func (t *countTable) bytes() int {
	return len(t.keys)*8 + len(t.counts)
}
