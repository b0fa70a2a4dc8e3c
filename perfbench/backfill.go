package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ripplestudy/internal/core"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/serve"
	"ripplestudy/internal/synth"
)

const (
	// backfillPayments sizes the backfill history: large enough that
	// one pass is tens of milliseconds of pipeline work, small enough
	// to generate three times per run.
	backfillPayments = 40_000
	// backfillQueryRate is the HTTP read rate beside the backfills.
	backfillQueryRate = 200
	// backfillQueryLimit is the read latency limit the generator's
	// lateness is judged against while every core is backfilling.
	backfillQueryLimit = 250 * time.Millisecond
)

// history is a generated ledger history persisted to a store.
type history struct {
	dir   string
	store *ledgerstore.Store
	res   *synth.Result
}

// genHistory generates a seeded history into a fresh store and reopens
// it for reading with its sequence index warm.
func genHistory(dir string, payments int, seed int64) (*history, error) {
	st, err := ledgerstore.Create(dir)
	if err != nil {
		return nil, err
	}
	res, err := synth.Generate(synth.Config{Payments: payments, Seed: seed, SkipSignatures: true}, st.Append)
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	if st, err = ledgerstore.Open(dir); err != nil {
		return nil, err
	}
	if _, err := st.SegmentRanges(); err != nil {
		return nil, err
	}
	return &history{dir: dir, store: st, res: res}, nil
}

func (h *history) release() {
	h.store.Close()
	os.RemoveAll(h.dir)
}

// scanPayments counts the store's payments through the zero-copy scan
// with a no-op callback.
func scanPayments(st *ledgerstore.Store) (int, error) {
	var n atomic.Int64
	err := st.ScanPayments(context.Background(), 0, func(int, *ledger.PaymentView) error {
		n.Add(1)
		return nil
	})
	return int(n.Load()), err
}

// runBackfill measures the bulk read path: ledgerstore → serve
// projection → view apply → seal, repeated on fresh services, with
// HTTP reads beside it.
func runBackfill(cfg config, rep *report) error {
	h, err := timeSetup(rep, func(i int) (*history, error) {
		return genHistory(filepath.Join(rep.dir, fmt.Sprintf("store-%d", i)), backfillPayments, cfg.seed)
	}, (*history).release)
	if err != nil {
		return err
	}
	defer h.store.Close()

	// Oracles: the scan's payment count and a batch Figure 3 over the
	// same store.
	wantPayments, err := scanPayments(h.store)
	if err != nil {
		return err
	}
	ds, err := core.OpenDataset(h.dir)
	if err != nil {
		return err
	}
	wantRows, err := ds.Figure3()
	if err != nil {
		return err
	}

	front, err := startHTTPFront()
	if err != nil {
		return err
	}
	defer front.close()
	paths, endpoint := queryPlan(rand.New(rand.NewSource(cfg.seed)), int(cfg.seconds*backfillQueryRate))

	tr := rep.tr
	var (
		passMS, rates, callS, drainS []float64
		allocPerPayment              []float64
		scrapes                      []map[string]float64
		reads                        readResult
		readsDone                    = make(chan struct{})
	)
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// Reads start against an empty, closed service (a closed service
	// keeps answering from its final snapshots); each pass then routes
	// them to its own service.
	idle := serve.NewService(serve.Options{})
	idle.Close()
	front.set(idle.Handler())
	go func() {
		defer close(readsDone)
		reads = front.readOpenLoop(start, backfillQueryRate, paths, endpoint)
	}()

	ctx := context.Background()
	for pass := uint64(1); time.Now().Before(deadline); pass++ {
		root := tr.begin("bench.backfill_pass", 0, pass)
		var a0 uint64
		if cfg.trace {
			a0 = allocBytes()
		}
		t0 := time.Now()
		sp := tr.begin("serve.new_service", root, pass)
		s := serve.NewService(serve.Options{})
		front.set(s.Handler())
		tr.end(sp)
		t1 := time.Now()
		sp = tr.begin("serve.backfill_call", root, pass)
		err := s.BackfillStore(ctx, h.store, 0)
		tr.end(sp)
		t2 := time.Now()
		if err == nil {
			sp = tr.begin("serve.drain", root, pass)
			err = s.Drain(ctx)
			tr.end(sp)
		}
		t3 := time.Now()
		if err != nil {
			s.Close()
			return fmt.Errorf("pass %d: %w", pass, err)
		}
		if cfg.trace {
			allocPerPayment = append(allocPerPayment, float64(allocBytes()-a0)/float64(wantPayments))
			scrapes = append(scrapes, scrapeMetrics(s))
		}
		fp := s.Fingerprints()
		rep.verify(fmt.Sprintf("backfill pass %d", pass), backfillOracle(fp.Payments, wantPayments, fp.Rows, wantRows))
		rep.check(s.Health().DroppedEvents == 0, "pass %d: service dropped events", pass)
		sp = tr.begin("serve.close", root, pass)
		s.Close()
		tr.end(sp)
		tr.end(root)

		passMS = append(passMS, ms(t3.Sub(t0)))
		rates = append(rates, float64(wantPayments)/t3.Sub(t1).Seconds())
		callS = append(callS, t2.Sub(t1).Seconds())
		drainS = append(drainS, t3.Sub(t2).Seconds())
	}
	tr.measured(time.Since(start))
	<-readsDone
	rep.e2e("peak_heap_mb", heap.peakMB(), "MB")

	res := summarize(passMS)
	capacity := median(rates)
	rep.e2e("capacity_per_s", capacity, "1/s")
	rep.e2e("result_p50_ms", res.p50, "ms")
	rep.e2e("result_tail_ms", res.tail, "ms")
	rep.layer("result.samples", float64(res.n), "count")
	rep.note("backfill: %d payments/pass, %d passes, backfill_payments_per_s=%.0f, pass p50=%.2fms tail(p%.0f)=%.2fms",
		wantPayments, res.n, capacity, res.p50, res.tailPct, res.tail)
	reads.report(rep, backfillQueryLimit, "http reads beside backfill")
	rep.layer("gen.lateness_max_ms", reads.late.max(), "ms")
	rep.ops(int64(res.n), 0)

	if cfg.trace {
		rep.layer("serve.backfill_call_s", median(callS), "s")
		rep.layer("serve.drain_s", median(drainS), "s")
		rep.layer("serve.alloc_bytes_per_payment", median(allocPerPayment), "B")
		addServeMetrics(rep, scrapes)
		scan := measureScan(rep, h.store, wantPayments)
		rep.layer("ledgerstore.scan_payments_per_s", scan, "1/s")
		rep.layer("ledgerstore.scan_to_backfill_ratio", scan/capacity, "ratio")
	}
	return nil
}

// measureScan times ScanPayments with a no-op callback: the ceiling the
// backfill pipeline is measured against.
func measureScan(rep *report, st *ledgerstore.Store, want int) float64 {
	var rates []float64
	for i := uint64(1); i <= 5; i++ {
		root := rep.tr.begin("bench.scan_probe", 0, i)
		sp := rep.tr.begin("ledgerstore.scan_payments", root, i)
		t := time.Now()
		n, err := scanPayments(st)
		d := time.Since(t)
		rep.tr.end(sp)
		rep.tr.end(root)
		rep.check(err == nil && n == want, "scan probe %d: %d payments, err %v", i, n, err)
		rates = append(rates, float64(n)/d.Seconds())
	}
	return median(rates)
}

// scrapeMetrics reads the service's Prometheus text into name → value.
func scrapeMetrics(s *serve.Service) map[string]float64 {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return parseProm(rec.Body.String())
}
