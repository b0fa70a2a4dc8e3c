package deanon

import (
	"reflect"
	"sync"
	"testing"
)

// TestShardedIncMatchesBatchStudy pins the serving-layer study to the
// batch reference: for every shard fan-out (including the inline
// single-writer configuration) the sealed Results, Payments, and every
// observed payment's Lookup must be bit-identical to a batch Study over
// the same stream.
func TestShardedIncMatchesBatchStudy(t *testing.T) {
	feats := randomFeatures(4000, 31)
	batch := NewStudy(Figure3Rows)
	// Independent saturating-count reference: a plain map per row.
	refCounts := make([]map[Fingerprint]uint8, len(Figure3Rows))
	for row := range refCounts {
		refCounts[row] = make(map[Fingerprint]uint8)
	}
	for _, f := range feats {
		batch.Observe(f)
		for row, res := range Figure3Rows {
			fp := FingerprintOf(f, res)
			if refCounts[row][fp] < countSaturated {
				refCounts[row][fp]++
			}
		}
	}
	want := batch.Results()

	for _, shardBits := range []int{0, 1, 3} {
		inc := NewShardedIncStudy(Figure3Rows, shardBits)
		if (shardBits == 0) != (inc.Shards() == 1) {
			t.Fatalf("shardBits=%d: got %d shards", shardBits, inc.Shards())
		}
		for _, f := range feats {
			inc.Observe(f)
		}
		snap := inc.Seal()
		if snap.Payments() != batch.Payments() {
			t.Fatalf("shardBits=%d: payments %d != %d", shardBits, snap.Payments(), batch.Payments())
		}
		if got := snap.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shardBits=%d: results diverge\ngot  %+v\nwant %+v", shardBits, got, want)
		}
		// Every observed payment must be found; counts must equal the
		// reference saturating count at every resolution row.
		for fi, f := range feats {
			for row, res := range Figure3Rows {
				got := snap.Lookup(row, f)
				if wantC := refCounts[row][FingerprintOf(f, res)]; got != wantC {
					t.Fatalf("shardBits=%d feat=%d row=%d: lookup %d, reference %d", shardBits, fi, row, got, wantC)
				}
			}
			if fi >= 400 {
				break
			}
		}
		inc.Close()
		// Snapshots must outlive Close (independent clones).
		if got := snap.Results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shardBits=%d: results changed after Close", shardBits)
		}
	}
}

// TestShardedIncMidStreamSeals cuts the stream at several points and
// checks each sealed epoch against a batch study over exactly the
// observed prefix — and that earlier snapshots stay frozen while the
// live study keeps moving.
func TestShardedIncMidStreamSeals(t *testing.T) {
	feats := randomFeatures(3000, 37)
	for _, shardBits := range []int{0, 2} {
		inc := NewShardedIncStudy(Figure3Rows, shardBits)
		cuts := []int{len(feats) / 5, len(feats) / 2, len(feats)}
		var snaps []*IncSnapshot
		var wants [][]RowResult
		prev := 0
		for _, cut := range cuts {
			for _, f := range feats[prev:cut] {
				inc.Observe(f)
			}
			prev = cut
			snap := inc.Seal()
			prefix := NewStudy(Figure3Rows)
			for _, f := range feats[:cut] {
				prefix.Observe(f)
			}
			want := prefix.Results()
			if got := snap.Results(); !reflect.DeepEqual(got, want) {
				t.Fatalf("shardBits=%d cut=%d: epoch diverges from batch prefix\ngot  %+v\nwant %+v", shardBits, cut, got, want)
			}
			snaps = append(snaps, snap)
			wants = append(wants, want)
		}
		inc.Close()
		// Immutability: every earlier epoch still answers as it did when
		// sealed, despite later observes, seals, and Close.
		for i, snap := range snaps {
			if got := snap.Results(); !reflect.DeepEqual(got, wants[i]) {
				t.Fatalf("shardBits=%d: snapshot %d mutated after later seals", shardBits, i)
			}
		}
	}
}

// TestShardedIncObserveFingerprintsMatchesObserve pins the projected
// fast path (fingerprints precomputed upstream through the study plan)
// to the Observe path.
func TestShardedIncObserveFingerprintsMatchesObserve(t *testing.T) {
	feats := randomFeatures(2000, 41)
	ref := NewShardedIncStudy(Figure3Rows, 2)
	defer ref.Close()
	pre := NewShardedIncStudy(Figure3Rows, 2)
	defer pre.Close()

	var fps []Fingerprint
	for _, f := range feats {
		ref.Observe(f)
		enc := EncodeFeatures(f)
		fps = enc.AppendFingerprints(pre.Plan(), fps[:0])
		pre.ObserveFingerprints(fps)
	}
	want, got := ref.Seal(), pre.Seal()
	if !reflect.DeepEqual(got.Results(), want.Results()) {
		t.Fatalf("ObserveFingerprints diverges from Observe\ngot  %+v\nwant %+v", got.Results(), want.Results())
	}
	for _, f := range feats[:200] {
		for row := range Figure3Rows {
			if a, b := got.Lookup(row, f), want.Lookup(row, f); a != b {
				t.Fatalf("row %d: lookup %d != %d", row, a, b)
			}
		}
	}
}

// TestShardedIncUnseenLookups checks that fingerprints never observed
// report count 0 in a sealed snapshot.
func TestShardedIncUnseenLookups(t *testing.T) {
	inc := NewShardedIncStudy(Figure3Rows, 3)
	defer inc.Close()
	for _, f := range randomFeatures(500, 43) {
		inc.Observe(f)
	}
	snap := inc.Seal()
	// Different destination pool than randomFeatures uses → disjoint
	// fingerprints for every destination-selecting row.
	unseen := Features{Destination: acct(999_999)}
	for row, res := range Figure3Rows {
		if !res.Destination {
			continue
		}
		if got := snap.Lookup(row, unseen); got != 0 {
			t.Fatalf("row %d: unseen feature reported count %d", row, got)
		}
	}
}

// TestShardedIncFeedersMatchSingleProducer drives the multi-producer
// feeder intake from concurrent goroutines — including the 1-shard
// configuration whose inline fast path Feeder must disable — and pins
// every sealed answer to a Study over the same stream. The seal's
// barrier flushes every registered feeder, the serving layer's merge
// pattern; run under -race.
func TestShardedIncFeedersMatchSingleProducer(t *testing.T) {
	feats := randomFeatures(4000, 53)
	want := NewStudy(Figure3Rows)
	for _, f := range feats {
		want.Observe(f)
	}
	wantRows := want.Results()

	for _, shardBits := range []int{0, 2} {
		for _, producers := range []int{1, 3} {
			inc := NewShardedIncStudy(Figure3Rows, shardBits)
			feeders := make([]*Feeder, producers)
			for p := range feeders {
				feeders[p] = inc.Feeder()
			}

			// Split the stream across producers in contiguous chunks; the
			// counts are order-insensitive sums so any partition must seal
			// to the same answers.
			var wg sync.WaitGroup
			per := (len(feats) + producers - 1) / producers
			for p := 0; p < producers; p++ {
				lo, hi := p*per, min((p+1)*per, len(feats))
				wg.Add(1)
				go func(fd *Feeder, chunk []Features) {
					defer wg.Done()
					var fps []Fingerprint
					for _, f := range chunk {
						enc := EncodeFeatures(f)
						fps = enc.AppendFingerprints(inc.Plan(), fps[:0])
						fd.ObserveFingerprints(fps)
					}
				}(feeders[p], feats[lo:hi])
			}
			wg.Wait()
			snap := inc.Seal()
			if snap.Payments() != want.Payments() {
				t.Fatalf("bits=%d producers=%d: payments %d != %d", shardBits, producers, snap.Payments(), want.Payments())
			}
			if !reflect.DeepEqual(snap.Results(), wantRows) {
				t.Fatalf("bits=%d producers=%d: results diverge\ngot  %+v\nwant %+v", shardBits, producers, snap.Results(), wantRows)
			}
			for _, f := range feats[:300] {
				for row, res := range Figure3Rows {
					got, ref := snap.Lookup(row, f), min(want.counts[row][FingerprintOf(f, res)], countSaturated)
					if uint32(got) != ref {
						t.Fatalf("bits=%d producers=%d row=%d: lookup %d, Study count %d", shardBits, producers, row, got, ref)
					}
				}
			}
			inc.Close()
		}
	}
}

// TestFeedersRegisterWhileObserving registers each feeder while the
// earlier ones are already observing from their goroutines — the
// pattern of BenchmarkFigure3/parallel and the perfbench research run —
// then reads Results, resumes every feeder, and reads again. Both reads
// must match a Study over the same prefix. Run under -race.
func TestFeedersRegisterWhileObserving(t *testing.T) {
	feats := randomFeatures(6000, 59)
	half := len(feats) / 2
	oracle := func(n int) []RowResult {
		st := NewStudy(Figure3Rows)
		for _, f := range feats[:n] {
			st.Observe(f)
		}
		return st.Results()
	}
	wantHalf, wantAll := oracle(half), oracle(len(feats))

	const producers = 4
	for _, shardBits := range []int{0, 2} {
		par := NewShardedIncStudy(Figure3Rows, shardBits)
		feed := func(lo, hi int) {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				fd := par.Feeder()
				wg.Add(1)
				go func(p int, fd *Feeder) {
					defer wg.Done()
					for i := lo + p; i < hi; i += producers {
						fd.Observe(feats[i])
					}
				}(p, fd)
			}
			wg.Wait()
		}
		feed(0, half)
		if got := par.Results(); !reflect.DeepEqual(got, wantHalf) {
			t.Fatalf("shardBits=%d: first half diverges\ngot  %+v\nwant %+v", shardBits, got, wantHalf)
		}
		feed(half, len(feats))
		if got := par.Results(); !reflect.DeepEqual(got, wantAll) {
			t.Fatalf("shardBits=%d: full stream diverges\ngot  %+v\nwant %+v", shardBits, got, wantAll)
		}
		if got := par.Seal().Results(); !reflect.DeepEqual(got, wantAll) {
			t.Fatalf("shardBits=%d: sealed rows diverge from Results", shardBits)
		}
		par.Close()
	}
}

// TestShardedIncConcurrentReaders hammers sealed snapshots from reader
// goroutines while the producer keeps observing and sealing — the
// serving pattern, run under -race in CI.
func TestShardedIncConcurrentReaders(t *testing.T) {
	feats := randomFeatures(2400, 47)
	inc := NewShardedIncStudy(Figure3Rows, 2)
	defer inc.Close()

	snapCh := make(chan *IncSnapshot, 16)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snapCh {
				for _, f := range feats[:50] {
					for row := range Figure3Rows {
						snap.Lookup(row, f)
					}
				}
				snap.Results()
			}
		}()
	}
	for i, f := range feats {
		inc.Observe(f)
		if i%200 == 199 {
			snapCh <- inc.Seal()
		}
	}
	close(snapCh)
	wg.Wait()

	batch := NewStudy(Figure3Rows)
	for _, f := range feats {
		batch.Observe(f)
	}
	if got, want := inc.Seal().Results(), batch.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final seal diverges from batch\ngot  %+v\nwant %+v", got, want)
	}
}
