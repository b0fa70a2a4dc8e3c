package deanon

import (
	"math/rand"
	"testing"
)

// TestAppendFingerprintsMatchesFingerprintOf pins the planned
// fingerprint path (prefix memoization + interleaved destination fold)
// bit-identical to the per-resolution reference for every resolution
// combination. allResolutions() has 50 destination rows, so the
// dstLanes batching is exercised past one batch.
func TestAppendFingerprintsMatchesFingerprintOf(t *testing.T) {
	plans := map[string][]Resolution{
		"figure3":    Figure3Rows,
		"importance": importanceRows(),
		"all":        allResolutions(),
		"single":     {{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: true}},
		"empty":      {},
	}
	for name, rows := range plans {
		plan := NewFingerprintPlan(rows)
		if plan.Rows() != len(rows) {
			t.Fatalf("%s: plan.Rows() = %d, want %d", name, plan.Rows(), len(rows))
		}
		var fps []Fingerprint
		for _, f := range randomFeatures(300, 11) {
			enc := EncodeFeatures(f)
			fps = enc.AppendFingerprints(plan, fps[:0])
			if len(fps) != len(rows) {
				t.Fatalf("%s: got %d fingerprints, want %d", name, len(fps), len(rows))
			}
			for i, res := range rows {
				if want := FingerprintOf(f, res); fps[i] != want {
					t.Fatalf("%s row %d (%s): planned fingerprint %x, FingerprintOf %x",
						name, i, res, fps[i], want)
				}
			}
		}
	}
}

// TestAppendFingerprintsAppends verifies the append contract: existing
// elements are preserved and new fingerprints land after them.
func TestAppendFingerprintsAppends(t *testing.T) {
	plan := NewFingerprintPlan(Figure3Rows)
	f := randomFeatures(1, 3)[0]
	enc := EncodeFeatures(f)
	out := []Fingerprint{42, 43}
	out = enc.AppendFingerprints(plan, out)
	if len(out) != 2+len(Figure3Rows) || out[0] != 42 || out[1] != 43 {
		t.Fatalf("append clobbered prefix: %v", out[:2])
	}
	for i, res := range Figure3Rows {
		if want := FingerprintOf(f, res); out[2+i] != want {
			t.Fatalf("row %d: %x, want %x", i, out[2+i], want)
		}
	}
}

// TestCountTableUniquesIncremental pins the O(1) uniques counter to the
// O(capacity) scan across growth, saturation, and the zero key.
func TestCountTableUniquesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := newCountTable()
	// A small key pool forces repeats (saturation) while still growing
	// the table several times; key 0 exercises the out-of-band slot.
	for i := 0; i < 50_000; i++ {
		tab.incr(Fingerprint(rng.Intn(8000)))
		if i%997 == 0 {
			if got, want := tab.unique(), tab.uniqueScan(); got != want {
				t.Fatalf("after %d incrs: unique() = %d, scan = %d", i+1, got, want)
			}
		}
	}
	if got, want := tab.unique(), tab.uniqueScan(); got != want {
		t.Fatalf("final: unique() = %d, scan = %d", got, want)
	}
	c := tab.clone()
	if got, want := c.unique(), c.uniqueScan(); got != want {
		t.Fatalf("clone: unique() = %d, scan = %d", got, want)
	}
	tab.reset()
	if tab.unique() != 0 || tab.uniqueScan() != 0 || tab.distinct() != 0 {
		t.Fatalf("reset left counts behind: unique=%d distinct=%d", tab.unique(), tab.distinct())
	}
	// The reset table must count correctly again.
	tab.incr(1)
	tab.incr(2)
	tab.incr(2)
	if tab.unique() != 1 || tab.get(1) != 1 || tab.get(2) != countSaturated {
		t.Fatalf("post-reset counting broken: unique=%d", tab.unique())
	}
}

// TestCountTablePoolRecycling verifies released tables come back zeroed
// with their grown capacity intact, and that oversized tables are
// dropped instead of pinned.
func TestCountTablePoolRecycling(t *testing.T) {
	tab := getCountTable()
	for i := 1; i <= 10_000; i++ {
		tab.incr(Fingerprint(i))
	}
	grown := len(tab.keys)
	if grown <= countTableMinCap {
		t.Fatalf("table did not grow (cap %d)", grown)
	}
	tab.release()
	got := getCountTable()
	if len(got.keys) < grown {
		t.Fatalf("pooled capacity lost: got %d, want >= %d", len(got.keys), grown)
	}
	if got.used != 0 || got.unique() != 0 || got.uniqueScan() != 0 {
		t.Fatalf("pooled table not zeroed: used=%d unique=%d", got.used, got.unique())
	}
	got.release()

	huge := &countTable{
		keys:   make([]Fingerprint, 2*maxPooledSlots),
		counts: make([]uint8, 2*maxPooledSlots),
		mask:   2*maxPooledSlots - 1,
	}
	huge.release() // must be a no-op
	if fresh := getCountTable(); len(fresh.keys) >= 2*maxPooledSlots {
		t.Fatalf("oversized table was pooled (cap %d)", len(fresh.keys))
	}
}

// TestParallelStudyCloseRecycles checks Close is safe (idempotent,
// post-Results) and that a study built after Close still produces
// correct results from recycled tables.
func TestParallelStudyCloseRecycles(t *testing.T) {
	feats := randomFeatures(5_000, 17)
	want := NewStudy(Figure3Rows)
	for _, f := range feats {
		want.Observe(f)
	}
	wantRows := want.Results()

	for round := 0; round < 3; round++ {
		par := NewShardedIncStudy(Figure3Rows, 2)
		for _, f := range feats {
			par.Observe(f)
		}
		rows := par.Results()
		for i := range wantRows {
			if rows[i].Unique != wantRows[i].Unique || rows[i].Total != wantRows[i].Total {
				t.Fatalf("round %d row %d: got %+v, want %+v", round, i, rows[i], wantRows[i])
			}
		}
		par.Close()
		par.Close() // idempotent
	}
}
