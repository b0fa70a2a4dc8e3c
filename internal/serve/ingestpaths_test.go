package serve

import (
	"reflect"
	"testing"

	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
)

// sampleFeatures extracts observable payment features from pages for
// lookup cross-checks.
func sampleFeatures(pages []*ledger.Page, limit int) []deanon.Features {
	var out []deanon.Features
	for _, p := range pages {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				out = append(out, f)
				if len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// checkFingerprintViewsEqual asserts two services' fingerprint views
// answer identically: Figure 3 rows, payment counts, and per-feature
// lookups at every resolution.
func checkFingerprintViewsEqual(t *testing.T, a, b *Service, feats []deanon.Features) {
	t.Helper()
	fa, fb := a.Fingerprints(), b.Fingerprints()
	if fa.Payments != fb.Payments {
		t.Fatalf("payments diverge: %d != %d", fa.Payments, fb.Payments)
	}
	if !reflect.DeepEqual(fa.Rows, fb.Rows) {
		t.Fatalf("Figure 3 rows diverge:\na: %+v\nb: %+v", fa.Rows, fb.Rows)
	}
	for fi, f := range feats {
		for row := range fa.Rows {
			ca, oka := fa.Lookup(row, f)
			cb, okb := fb.Lookup(row, f)
			if oka != okb || ca != cb {
				t.Fatalf("feature %d row %d: lookup (%d,%v) != (%d,%v)", fi, row, ca, oka, cb, okb)
			}
		}
	}
}

// checkEcosystemViewsEqual asserts two services' ecosystem views carry
// identical statistics (epochs may differ — publish cadence is not part
// of the contract).
func checkEcosystemViewsEqual(t *testing.T, a, b *Service) {
	t.Helper()
	ea, eb := a.Ecosystem(), b.Ecosystem()
	if ea.Payments != eb.Payments || ea.Failed != eb.Failed || ea.MultiHop != eb.MultiHop ||
		ea.Offers != eb.Offers || ea.ActiveUsers != eb.ActiveUsers || ea.Pages != eb.Pages {
		t.Fatalf("ecosystem scalars diverge:\na: %+v\nb: %+v", ea, eb)
	}
	if !reflect.DeepEqual(ea.Currencies, eb.Currencies) ||
		!reflect.DeepEqual(ea.Hops, eb.Hops) ||
		!reflect.DeepEqual(ea.Parallel, eb.Parallel) ||
		!reflect.DeepEqual(ea.Survival, eb.Survival) {
		t.Fatal("ecosystem histograms diverge")
	}
}

// TestShardedMatchesSingleWriterService pins the sharded fingerprint
// view to the sequential single-writer baseline at the service level:
// the same pages through PipelineWorkers=8 and PipelineWorkers=1 must
// produce bit-identical snapshots at mid-stream epochs and at the end.
// The count-shard fan-out follows the worker count, rounded up to a
// power of two.
func TestShardedMatchesSingleWriterService(t *testing.T) {
	pages := genPages(t, 2000, 61)
	feats := sampleFeatures(pages, 150)

	sharded := NewService(Options{PipelineWorkers: 8, PublishBatch: 16})
	defer sharded.Close()
	single := NewService(Options{PipelineWorkers: 1, PublishBatch: 16})
	defer single.Close()
	if got := sharded.fpState.shards(); got != 8 {
		t.Fatalf("8-worker service runs %d shards, want 8", got)
	}
	if got := single.fpState.shards(); got != 1 {
		t.Fatalf("1-worker service runs %d shards, want 1", got)
	}
	odd := NewService(Options{PipelineWorkers: 3})
	if got := odd.fpState.shards(); got != 4 {
		t.Fatalf("3-worker service runs %d shards, want 4", got)
	}
	odd.Close()

	cuts := []int{len(pages) / 3, 2 * len(pages) / 3, len(pages)}
	prev := 0
	for _, cut := range cuts {
		chunk := pages[prev:cut]
		prev = cut
		if err := sharded.IngestPages(chunk); err != nil {
			t.Fatal(err)
		}
		if err := single.IngestPages(chunk); err != nil {
			t.Fatal(err)
		}
		drain(t, sharded)
		drain(t, single)
		checkFingerprintViewsEqual(t, sharded, single, feats)
		checkEcosystemViewsEqual(t, sharded, single)
	}

	// Both must also equal the batch ground truth over the full history.
	study, col := batchViews(t, pages)
	checkAgainstBatch(t, sharded, study, col, pages)
}

// TestBatchedIngestMatchesSinglePage pins the batched fan-out
// (IngestPages, one queue operation per IngestBatchPages pages) to the
// page-at-a-time path: identical views, whatever the batching.
func TestBatchedIngestMatchesSinglePage(t *testing.T) {
	pages := genPages(t, 1200, 67)
	feats := sampleFeatures(pages, 100)

	batched := NewService(Options{IngestBatchPages: 7}) // ragged final batch
	defer batched.Close()
	if err := batched.IngestPages(pages); err != nil {
		t.Fatal(err)
	}

	onebyone := NewService(Options{})
	defer onebyone.Close()
	for _, p := range pages {
		if err := onebyone.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}

	drain(t, batched)
	drain(t, onebyone)
	checkFingerprintViewsEqual(t, batched, onebyone, feats)
	checkEcosystemViewsEqual(t, batched, onebyone)
	if got, want := batched.Health().IngestedPages, uint64(len(pages)); got != want {
		t.Fatalf("batched path ingested %d pages, want %d", got, want)
	}
}

// TestDifferentialThroughInjectedFaults streams a history where well
// over 15% of the page payloads are corrupted in flight: every corrupt
// payload must be quarantined (counted, tally still advances) and the
// page views must equal the batch computation over exactly the pages
// that survived.
func TestDifferentialThroughInjectedFaults(t *testing.T) {
	pages := genPages(t, 1500, 71)
	s := NewService(Options{PublishBatch: 8})
	defer s.Close()

	var good []*ledger.Page
	corrupted := 0
	var buf []byte
	for i, p := range pages {
		buf = p.Encode(buf[:0])
		payload := append([]byte(nil), buf...)
		if i%5 < 1 { // 20% fault rate
			payload = payload[:len(payload)-1] // framing violation
			corrupted++
		} else {
			good = append(good, p)
		}
		var hash ledger.Hash
		hash[0], hash[1], hash[2] = byte(i), byte(i>>8), 1
		ev := consensus.Event{
			Kind:       consensus.EventLedgerClosed,
			LedgerHash: hash,
			Seq:        p.Header.Sequence,
			StreamSeq:  uint64(i + 1),
			PageData:   payload,
		}
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)

	h := s.Health()
	if h.DroppedEvents != uint64(corrupted) {
		t.Fatalf("dropped %d, want %d (the corrupted payloads)", h.DroppedEvents, corrupted)
	}
	if h.IngestedPages != uint64(len(good)) {
		t.Fatalf("ingested %d pages, want %d survivors", h.IngestedPages, len(good))
	}
	if got, want := s.Tally().Rounds, len(pages); got != want {
		t.Fatalf("tally saw %d rounds, want %d — close events must survive corrupt payloads", got, want)
	}
	study, col := batchViews(t, good)
	checkAgainstBatch(t, s, study, col, good)
}
