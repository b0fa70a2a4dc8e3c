package deanon

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// ShardedIncStudy is the sharded, incrementally-maintained counterpart
// of Study and the one engine behind every Figure 3 count outside the
// Study oracle: the batch pipelines (core.Figure3Parallel, feature
// importance) read it once through Results, and the live serving layer
// (internal/serve) publishes epochs from it through Seal, so both the
// per-resolution information gain and individual sender-uniqueness
// lookups are answerable in O(1) at any point of a long-running stream.
//
// The fingerprint space is partitioned into 1<<shardBits shards by the
// fingerprint's HIGH bits; each shard is owned by one worker goroutine
// with private countTables, so increments need no locks and scale with
// cores. Producers route observations into per-shard batches and hand
// full batches to the owning worker over a channel. Because the
// information gain only needs to distinguish "seen once" from "seen
// more than once", the tables hold saturating uint8 counters in
// open-addressed slots indexed by the fingerprint's low bits (see
// counttable.go) instead of Study's uint32 map entries.
//
// Observe and ObserveFingerprints are single-producer, like Study's;
// concurrent producers (a segment-parallel store scan, the serving
// layer's pipeline workers) each register their own Feeder.
//
// Results and Seal barrier first: every registered feeder's buffered
// batches are flushed and every shard that received work since the last
// Seal acknowledges it has applied them, so all producers must be
// quiescent during the call; they may resume afterwards. Results sums
// the live tables. Seal additionally deep-copies ONLY the changed
// shards' tables (copy-on-publish; unchanged shards share their
// previous immutable clone) and returns an IncSnapshot. Shards
// partition the fingerprint space, so per-resolution unique counts are
// plain sums and a lookup probes exactly one shard's table; every
// answer is bit-identical to a Study fed the same payments in any
// order.
type ShardedIncStudy struct {
	resolutions []Resolution
	plan        *FingerprintPlan
	shift       uint
	shards      []*incShard
	// payments is atomic so concurrent feeders can count observations
	// without a lock and seal-gate heuristics can read the running total
	// from a coordinator goroutine.
	payments atomic.Int64

	// dirty marks shards that received observations since the last Seal.
	// It is atomic so concurrent feeders can mark shards; it is read and
	// cleared only at a barrier, with every producer quiescent.
	dirty []atomic.Bool

	// sealed[sh] is shard sh's tables as of its last dirty Seal —
	// immutable clones shared with every snapshot taken since.
	sealed [][]*countTable
	// empty is the shared all-zero table clean shards point at before
	// their first observation.
	empty *countTable

	batchPool sync.Pool // *[]obsEntry, recycled after consumption
	wg        sync.WaitGroup

	// mu guards feeders: a feeder may register while earlier ones are
	// observing; the barrier flushes every registered feeder.
	mu      sync.Mutex
	feeders []*Feeder
	// def is the study's own producer handle behind Observe and
	// ObserveFingerprints, registered on first use.
	def    *Feeder
	fps    []Fingerprint // Observe scratch
	closed bool

	// inline short-circuits the 1-shard, single-producer configuration:
	// the producer IS the only writer, so observations increment the
	// tables directly — no batches, no channel hops, no shard goroutine,
	// no barrier. Registering a Feeder turns it off for good. Results
	// are identical by construction.
	inline bool
}

// obsEntry routes one fingerprint observation to a shard worker.
type obsEntry struct {
	res uint16
	fp  Fingerprint
}

// incShard is one worker-owned slice of the fingerprint space. Its
// channel carries observation batches; a nil batch is a barrier token
// the worker acknowledges on ack once every prior batch is applied.
type incShard struct {
	ch     chan []obsEntry
	ack    chan struct{}
	counts []*countTable
}

const (
	// batchEntries is the per-shard producer batch size; one batch is
	// 16 B × 256 = 4 KiB, small enough to stay cache-resident.
	batchEntries = 256
	// maxShardBits bounds the shard count (1024) well past any sensible
	// core count.
	maxShardBits = 10
)

// ShardBitsFor sizes the count-shard fan-out to n concurrent producers:
// the next power of two ≥ n, as shard bits clamped to [0, 10], so every
// producer can make progress against a worker-private table.
func ShardBitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return min(bits.Len(uint(n-1)), maxShardBits)
}

// NewShardedIncStudy prepares a sharded study over the given
// resolutions with 1<<shardBits counting shards. shardBits is clamped
// to [0, 10]; ShardBitsFor picks it from a producer count. Close must be
// called to stop the shard workers and recycle the tables.
func NewShardedIncStudy(resolutions []Resolution, shardBits int) *ShardedIncStudy {
	shardBits = min(max(shardBits, 0), maxShardBits)
	s := &ShardedIncStudy{
		resolutions: append([]Resolution(nil), resolutions...),
		shift:       uint(64 - shardBits),
		empty:       newCountTable(),
		inline:      shardBits == 0,
	}
	s.plan = NewFingerprintPlan(s.resolutions)
	s.fps = make([]Fingerprint, 0, len(s.resolutions))
	n := 1 << shardBits
	s.dirty = make([]atomic.Bool, n)
	s.sealed = make([][]*countTable, n)
	for i := 0; i < n; i++ {
		// A few batches of slack let producers run ahead of a busy
		// shard instead of blocking on every hand-off.
		sh := &incShard{ch: make(chan []obsEntry, 4), ack: make(chan struct{}, 1)}
		for range s.resolutions {
			sh.counts = append(sh.counts, getCountTable())
		}
		s.shards = append(s.shards, sh)
		// Until the shard's first dirty seal, snapshots share the one
		// immutable empty table.
		tables := make([]*countTable, len(s.resolutions))
		for r := range tables {
			tables[r] = s.empty
		}
		s.sealed[i] = tables
	}
	if !s.inline {
		s.startShards()
	}
	return s
}

// startShards launches one worker goroutine per shard.
func (s *ShardedIncStudy) startShards() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go s.runShard(sh)
	}
}

// runShard drains one shard's batches into its private count tables and
// acknowledges barrier tokens.
func (s *ShardedIncStudy) runShard(sh *incShard) {
	defer s.wg.Done()
	for batch := range sh.ch {
		if batch == nil {
			sh.ack <- struct{}{}
			continue
		}
		for _, e := range batch {
			sh.counts[e.res].incr(e.fp)
		}
		s.batchPool.Put(&batch)
	}
}

func (s *ShardedIncStudy) getBatch() []obsEntry {
	if v := s.batchPool.Get(); v != nil {
		return (*v.(*[]obsEntry))[:0]
	}
	return make([]obsEntry, 0, batchEntries)
}

// Shards returns the number of counting shards.
func (s *ShardedIncStudy) Shards() int { return len(s.shards) }

// Resolutions returns the study's resolution rows, in order.
func (s *ShardedIncStudy) Resolutions() []Resolution { return s.resolutions }

// Payments returns the number of observations folded in. It is safe to
// call concurrently with feeder intake; the count is monotone and may
// trail in-flight observations by at most a batch.
func (s *ShardedIncStudy) Payments() int { return int(s.payments.Load()) }

// Plan returns the study's compiled fingerprint plan, for producers
// that precompute fingerprints upstream (the serving layer's projection
// front door) and feed them back through ObserveFingerprints.
func (s *ShardedIncStudy) Plan() *FingerprintPlan { return s.plan }

// Observe folds one payment in, encoding its features and
// fingerprinting every resolution through the shared plan.
func (s *ShardedIncStudy) Observe(f Features) {
	enc := EncodeFeatures(f)
	s.fps = enc.AppendFingerprints(s.plan, s.fps[:0])
	s.ObserveFingerprints(s.fps)
}

// ObserveFingerprints folds one payment's precomputed fingerprints —
// one per resolution row, produced by the study's Plan — into the shard
// counts. Like Observe it is single-producer: it must not run
// concurrently with itself or with Feeder, Results, Seal or Close.
func (s *ShardedIncStudy) ObserveFingerprints(fps []Fingerprint) {
	if s.inline {
		s.payments.Add(1)
		counts := s.shards[0].counts
		for i, fp := range fps {
			counts[i].incr(fp)
		}
		s.dirty[0].Store(true)
		return
	}
	if s.def == nil {
		s.def = s.Feeder()
	}
	s.def.ObserveFingerprints(fps)
}

// Feeder is a per-producer intake: each concurrent producer goroutine
// owns one and routes observations into private per-shard batches, so a
// counting shard receives one coalesced batch per flush and producers
// never contend on shared batch state. Shard channels are the only
// cross-producer rendezvous, and Go channels are multi-producer safe;
// counts are order-insensitive sums, so interleaving batches from
// different feeders cannot change any result. Observe on distinct
// feeders may run concurrently; on one feeder it must not.
type Feeder struct {
	study   *ShardedIncStudy
	pending [][]obsEntry  // pending batch per shard
	fps     []Fingerprint // Observe scratch
}

// Feeder registers a new producer handle, which the study's barrier
// flushes from then on. It may be called while earlier feeders are
// observing, but not concurrently with the study's own Observe,
// Results, Seal or Close. The first registration on a 1-shard study
// starts its shard goroutine: with several producers even one shard
// needs a channel-owned writer.
func (s *ShardedIncStudy) Feeder() *Feeder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inline {
		s.inline = false
		s.startShards()
	}
	fd := &Feeder{
		study:   s,
		pending: make([][]obsEntry, len(s.shards)),
		fps:     make([]Fingerprint, 0, len(s.resolutions)),
	}
	for sh := range fd.pending {
		fd.pending[sh] = s.getBatch()
	}
	s.feeders = append(s.feeders, fd)
	return fd
}

// Observe folds one payment in through this feeder. The features are
// encoded once; each resolution reuses the encoding.
func (fd *Feeder) Observe(f Features) {
	enc := EncodeFeatures(f)
	fd.fps = enc.AppendFingerprints(fd.study.plan, fd.fps[:0])
	fd.ObserveFingerprints(fd.fps)
}

// ObserveFingerprints folds one payment's precomputed fingerprints into
// the feeder's per-shard batches, handing full batches to the owning
// shard goroutine.
func (fd *Feeder) ObserveFingerprints(fps []Fingerprint) {
	s := fd.study
	s.payments.Add(1)
	for i, fp := range fps {
		sh := int(uint64(fp) >> s.shift)
		fd.pending[sh] = append(fd.pending[sh], obsEntry{res: uint16(i), fp: fp})
		if len(fd.pending[sh]) == cap(fd.pending[sh]) {
			fd.send(sh)
		}
	}
}

// send hands shard sh's pending batch to its worker. The shard is
// marked dirty before the send so the next barrier waits on it.
func (fd *Feeder) send(sh int) {
	s := fd.study
	s.dirty[sh].Store(true)
	s.shards[sh].ch <- fd.pending[sh]
	fd.pending[sh] = s.getBatch()
}

// barrier flushes every registered feeder and waits until every dirty
// shard has applied its batches. On return the tables are quiescent and
// safe for the coordinator to read until producers resume.
func (s *ShardedIncStudy) barrier() {
	if s.inline {
		return // no worker goroutine; the tables are already quiescent
	}
	s.mu.Lock()
	feeders := s.feeders
	s.mu.Unlock()
	for _, fd := range feeders {
		for sh, buf := range fd.pending {
			if len(buf) > 0 {
				fd.send(sh)
			}
		}
	}
	for sh, shard := range s.shards {
		if s.dirty[sh].Load() {
			shard.ch <- nil
		}
	}
	for sh, shard := range s.shards {
		if s.dirty[sh].Load() {
			<-shard.ack
		}
	}
}

// Results computes the IG for every resolution from the live tables —
// the batch read. It barriers like Seal but clones nothing, so a study
// read once costs no copy; it may be called repeatedly, and producers
// may resume after it.
func (s *ShardedIncStudy) Results() []RowResult {
	s.barrier()
	unique := make([]int, len(s.resolutions))
	for _, sh := range s.shards {
		for r, t := range sh.counts {
			unique[r] += t.unique()
		}
	}
	return rowResults(s.resolutions, unique, s.Payments())
}

// Seal publishes the current counts as an immutable IncSnapshot. Only
// shards that changed since the previous Seal are deep-copied; clean
// shards share the clone the previous snapshot already holds, so the
// amortized publish cost tracks the ingest rate, not the table size.
func (s *ShardedIncStudy) Seal() *IncSnapshot {
	s.barrier()
	for sh := range s.shards {
		if !s.dirty[sh].Load() {
			continue
		}
		tables := make([]*countTable, len(s.resolutions))
		for r, t := range s.shards[sh].counts {
			tables[r] = t.clone()
		}
		s.sealed[sh] = tables
		s.dirty[sh].Store(false)
	}
	snap := &IncSnapshot{
		resolutions: s.resolutions,
		shift:       s.shift,
		tables:      make([][]*countTable, len(s.sealed)),
		unique:      make([]int, len(s.resolutions)),
		payments:    int(s.payments.Load()),
		empty:       s.empty,
	}
	copy(snap.tables, s.sealed)
	for r := range s.resolutions {
		for sh := range snap.tables {
			snap.unique[r] += snap.tables[sh][r].unique()
		}
	}
	return snap
}

// Close stops the shard workers and returns the live tables to the
// package pool, so callers that rebuild studies repeatedly (benchmark
// loops, repeated batch runs) reuse the fully-grown tables instead of
// re-growing them. Call it after the last Results read; snapshots stay
// valid, as their tables are independent clones. Close is idempotent;
// nothing else may follow it.
func (s *ShardedIncStudy) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if !s.inline {
		for _, sh := range s.shards {
			close(sh.ch)
		}
		s.wg.Wait()
	}
	for _, sh := range s.shards {
		for i, t := range sh.counts {
			if t != nil {
				t.release()
				sh.counts[i] = nil
			}
		}
	}
}

// ParallelStudy is the engine's former batch-only name, kept for the
// perfbench harness; new code uses ShardedIncStudy.
type ParallelStudy = ShardedIncStudy

// NewParallelStudy is NewShardedIncStudy under its former name, kept
// for the perfbench harness.
func NewParallelStudy(resolutions []Resolution, shardBits int) *ParallelStudy {
	return NewShardedIncStudy(resolutions, shardBits)
}

// rowResults turns per-resolution unique counts into Figure 3 rows.
func rowResults(resolutions []Resolution, unique []int, payments int) []RowResult {
	out := make([]RowResult, 0, len(resolutions))
	for i, res := range resolutions {
		ig := 0.0
		if payments > 0 {
			ig = float64(unique[i]) / float64(payments)
		}
		out = append(out, RowResult{Resolution: res, IG: ig, Unique: unique[i], Total: payments})
	}
	return out
}

// IncSnapshot is one sealed, immutable epoch of a ShardedIncStudy: the
// per-shard count tables plus the derived per-resolution unique counts.
// It is safe to share across any number of reader goroutines.
type IncSnapshot struct {
	resolutions []Resolution
	shift       uint
	tables      [][]*countTable // [shard][resolution]
	unique      []int
	payments    int
	empty       *countTable
}

// Payments returns the number of observations sealed into the snapshot.
func (s *IncSnapshot) Payments() int { return s.payments }

// Resolutions returns the snapshot's resolution rows.
func (s *IncSnapshot) Resolutions() []Resolution { return s.resolutions }

// Results returns the information gain for every resolution, O(shards)
// per row. The rows are bit-identical to a Study fed the same payments
// in any order.
func (s *IncSnapshot) Results() []RowResult {
	return rowResults(s.resolutions, s.unique, s.payments)
}

// Lookup returns how many sealed payments share the observation's
// fingerprint at resolution row i, saturating at 2: 0 = never seen,
// 1 = unique (a successful de-anonymization), 2 = ambiguous. O(1): the
// fingerprint's high bits pick the one shard table that can hold it.
func (s *IncSnapshot) Lookup(i int, f Features) uint8 {
	return s.LookupFingerprint(i, FingerprintOf(f, s.resolutions[i]))
}

// LookupFingerprint is Lookup for a precomputed fingerprint.
func (s *IncSnapshot) LookupFingerprint(i int, fp Fingerprint) uint8 {
	return s.tables[uint64(fp)>>s.shift][i].get(fp)
}

// DistinctFingerprints reports the number of distinct fingerprints per
// resolution.
func (s *IncSnapshot) DistinctFingerprints() []int {
	out := make([]int, len(s.resolutions))
	for i := range s.resolutions {
		for sh := range s.tables {
			out[i] += s.tables[sh][i].distinct()
		}
	}
	return out
}

// CountBytes reports the resident footprint of the sealed tables. The
// shared empty placeholder is counted once, not per shard.
func (s *IncSnapshot) CountBytes() int {
	n := 0
	sawEmpty := false
	for _, tables := range s.tables {
		for _, t := range tables {
			if t == s.empty {
				if !sawEmpty {
					n += t.bytes()
					sawEmpty = true
				}
				continue
			}
			n += t.bytes()
		}
	}
	return n
}
