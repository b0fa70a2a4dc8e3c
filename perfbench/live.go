package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/serve"
)

const (
	// liveCloses is the pre-generated stream length in closed pages
	// (rounds that miss quorum close none). The fixed-rate phase
	// replays it on fresh services until it has its sample count.
	liveCloses = 600
	// livePaymentsPerRound is the signed XRP traffic sealed per round.
	livePaymentsPerRound = 20
	// liveFixedRate is the close rate freshness is reported at.
	liveFixedRate = 100.0
	// liveFixedShare is the share of the run spent at the fixed rate;
	// the rest measures capacity.
	liveFixedShare = 0.4
	// liveFreshLimit is the freshness latency limit; the close
	// generator may run late by latenessShare of it.
	liveFreshLimit = 50 * time.Millisecond
	// liveQueryRate is the HTTP read rate beside the stream.
	liveQueryRate = 400
	// liveQueryLimit judges the read generator's lateness.
	liveQueryLimit = 50 * time.Millisecond
	// liveDrainCloses is one capacity burst: the whole stream published
	// at once, drained through the full path into a fresh service, and
	// timed from its first close becoming visible to its last. The
	// capacity is the median burst rate over the bursts (at least
	// minBursts) that fit in the rest of the run.
	liveDrainCloses = 600
	// liveServerQueue is the stream server's per-subscriber queue in
	// frames: room for a whole burst (≈32 events per close), so the
	// backlog waits in the queue instead of being shed.
	liveServerQueue = 32768
)

// liveStream is a pre-generated validation stream grouped by round:
// each round's validations followed by its ledger-close event.
type liveStream struct {
	name   string
	labels map[addr.NodeID]string
	rounds [][]consensus.Event
	seqs   []uint64 // ledger sequence each round closes
}

// genStream runs the December 2015 population until liveCloses pages
// have closed, with page payloads on the stream, like rippled-sim
// -stream-pages.
func genStream(seed int64) (*liveStream, error) {
	spec := consensus.December2015(2 * liveCloses)
	ls := &liveStream{name: spec.Name, labels: make(map[addr.NodeID]string)}
	for _, vs := range spec.Specs {
		if vs.Label != "" {
			ls.labels[addr.KeyPairFromSeed(vs.Seed).NodeID()] = vs.Label
		}
	}
	net := consensus.NewNetwork(consensus.Config{Seed: seed, StartTime: spec.Start, StreamPages: true}, spec.Specs)
	var cur []consensus.Event
	net.Subscribe(func(ev consensus.Event) {
		cur = append(cur, ev)
		if ev.Kind == consensus.EventLedgerClosed {
			ls.rounds = append(ls.rounds, cur)
			ls.seqs = append(ls.seqs, ev.Seq)
			cur = nil
		}
	})
	rng := rand.New(rand.NewSource(seed + 1))
	payer := addr.KeyPairFromSeed(uint64(987654 + seed))
	net.Engine().Fund(payer.AccountID(), 1_000_000_000_000)
	for r := 0; len(ls.rounds) < liveCloses; r++ {
		if r == 2*liveCloses {
			return nil, fmt.Errorf("only %d of %d rounds closed a page", len(ls.rounds), r)
		}
		txs := make([]*ledger.Tx, livePaymentsPerRound)
		next := net.Engine().NextSequence(payer.AccountID())
		for i := range txs {
			tx := &ledger.Tx{
				Type:        ledger.TxPayment,
				Account:     payer.AccountID(),
				Sequence:    next + uint32(i),
				Fee:         10,
				Destination: addr.KeyPairFromSeed(uint64(10000 + rng.Intn(500))).AccountID(),
				Amount:      amount.XRPAmount(amount.Drops(1_000_000 + rng.Int63n(50_000_000))),
			}
			tx.Sign(payer)
			txs[i] = tx
		}
		if _, err := net.RunRound(txs); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// fold is the oracle: the batch Figure 2 collector over the first n
// rounds of the stream.
func (ls *liveStream) fold(n int) monitor.Report {
	c := monitor.NewCollector()
	for node, label := range ls.labels {
		c.SetLabel(node, label)
	}
	for _, round := range ls.rounds[:n] {
		for _, ev := range round {
			c.Record(ev)
		}
	}
	return c.Report(ls.name)
}

// streamRun is one replay of a stream prefix through netstream into a
// fresh service.
type streamRun struct {
	fresh    []float64   // ms, close due time → visible in all three views
	seenAt   []time.Time // when each close became visible
	deliver  []float64   // ms, due → handler receipt
	ingest   []float64   // µs, IngestEvent call of the close event
	visible  []float64   // ms, IngestEvent return → visible
	elapsed  time.Duration
	late     lateness
	lagMax   uint64
	stats    netstream.ClientStats
	dropped  uint64
	complete bool
	tally    monitor.Report
	metrics  map[string]float64 // the service's /metrics after the run
}

// replayStream publishes the first n rounds through a fresh netstream
// server, ResilientClient and service, and stamps each close's due,
// receipt, ingest-return and visibility times. With rate > 0 rounds
// are published on that fixed open-loop schedule; otherwise all at
// once. With front set, the service's handler serves the HTTP reads
// for the run; started, when set, receives the schedule's start time.
func replayStream(ls *liveStream, n int, rate float64, tr *tracer, front *httpFront, started chan<- time.Time) (*streamRun, error) {
	srv, err := netstream.Serve("127.0.0.1:0", netstream.WithQueueSize(liveServerQueue))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	s := serve.NewService(serve.Options{ValidatorLabels: ls.labels})
	defer s.Close()
	if front != nil {
		front.set(s.Handler())
	}

	res := &streamRun{}
	index := make(map[uint64]int, n)
	for i, seq := range ls.seqs[:n] {
		index[seq] = i
	}
	due := make([]time.Time, n)
	receipt := make([]time.Time, n)
	returned := make([]time.Time, n)
	visible := make([]time.Time, n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := netstream.NewResilientClient(srv.Addr(), netstream.ResilientOptions{
		InitialBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
	})
	var (
		wg        sync.WaitGroup
		clientErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		clientErr = client.Run(ctx, func(ev consensus.Event) error {
			i, ok := index[ev.Seq]
			if ev.Kind != consensus.EventLedgerClosed || !ok {
				return s.IngestEvent(ev)
			}
			receipt[i] = time.Now()
			err := s.IngestEvent(ev)
			returned[i] = time.Now()
			return err
		})
	}()
	for srv.NumSubscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	// The visibility watcher polls the three snapshots' applied
	// sequences and stamps every close they have all reached.
	watchDone := make(chan struct{})
	stopWatch := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(250 * time.Microsecond)
		defer tick.Stop()
		next := 0
		for polls := 0; next < n; polls++ {
			applied := min(s.Tally().AppliedSeq, s.Fingerprints().AppliedSeq, s.Ecosystem().AppliedSeq)
			now := time.Now()
			for next < n && ls.seqs[next] <= applied {
				visible[next] = now
				next++
			}
			if polls%20 == 0 { // the lag needs a health report; sample it every 5ms
				for _, v := range s.Health().Views {
					res.lagMax = max(res.lagMax, v.Lag)
				}
			}
			select {
			case <-stopWatch:
				return
			case <-tick.C:
			}
		}
	}()

	publish := func(i int, d time.Time) {
		due[i] = d
		for _, ev := range ls.rounds[i] {
			srv.Publish(ev)
		}
	}
	start := time.Now().Add(2 * time.Millisecond)
	if started != nil {
		started <- start
	}
	if rate > 0 {
		res.late = openLoop(start, rate, n, publish)
	} else {
		time.Sleep(time.Until(start))
		for i := 0; i < n; i++ {
			publish(i, start)
		}
	}
	// A stuck pipeline fails the run instead of hanging it.
	wait := time.NewTimer(30 * time.Second)
	select {
	case <-watchDone:
		res.complete = true
	case <-wait.C:
	}
	wait.Stop()
	close(stopWatch)
	<-watchDone
	res.elapsed = time.Since(start)
	if err := s.Drain(ctx); err != nil {
		return nil, err
	}
	cancel()
	wg.Wait()
	if clientErr != nil && !errors.Is(clientErr, context.Canceled) {
		return nil, fmt.Errorf("stream client: %w", clientErr)
	}
	res.stats = client.Stats()
	res.dropped = s.Health().DroppedEvents
	res.tally = s.Tally().Report(ls.name)
	if tr.on {
		res.metrics = scrapeMetrics(s)
	}

	for i := 0; i < n; i++ {
		if visible[i].IsZero() || receipt[i].IsZero() {
			continue
		}
		// The watcher polls, so it can stamp a close visible before the
		// handler's clock read after IngestEvent returned.
		if visible[i].Before(returned[i]) {
			visible[i] = returned[i]
		}
		res.fresh = append(res.fresh, ms(visible[i].Sub(due[i])))
		res.seenAt = append(res.seenAt, visible[i])
		res.deliver = append(res.deliver, ms(receipt[i].Sub(due[i])))
		res.ingest = append(res.ingest, us(returned[i].Sub(receipt[i])))
		res.visible = append(res.visible, ms(visible[i].Sub(returned[i])))
		root := tr.add("bench.close", 0, ls.seqs[i], due[i], visible[i])
		tr.add("netstream.deliver", root, ls.seqs[i], due[i], receipt[i])
		tr.add("serve.ingest_event", root, ls.seqs[i], receipt[i], returned[i])
		tr.add("serve.visible", root, ls.seqs[i], returned[i], visible[i])
	}
	return res, nil
}

// lost counts the closes and events a run failed to deliver.
func (r *streamRun) lost(n int) int64 {
	return int64(n-len(r.fresh)) + int64(r.dropped) + int64(r.stats.Missed)
}

// runLive measures the streaming read path with reads beside it:
// freshness at a fixed close rate, then the rate at which a fresh
// pipeline drains a whole-stream backlog.
func runLive(cfg config, rep *report) error {
	ls, err := timeSetup(rep, func(int) (*liveStream, error) { return genStream(cfg.seed) }, nil)
	if err != nil {
		return err
	}
	front, err := startHTTPFront()
	if err != nil {
		return err
	}
	defer front.close()
	rng := rand.New(rand.NewSource(cfg.seed))
	heap := startHeapSampler()

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// Fixed rate: replays of the stream on fresh services, with the
	// HTTP reads beside each, until the phase's closes are published.
	var (
		fresh, deliver, ingest, visible []float64
		reads                           readResult
		lagMax                          uint64
		gaps, missed                    uint64
		scrapes                         []map[string]float64
		late                            lateness
	)
	reads.byEndpoint = make([][]float64, len(queryEndpoints))
	total := int(cfg.seconds * liveFixedShare * liveFixedRate)
	for done := 0; done < total; {
		n := min(len(ls.rounds), total-done)
		paths, endpoint := queryPlan(rng, int(float64(n)/liveFixedRate*liveQueryRate))
		started := make(chan time.Time, 1)
		readsDone := make(chan readResult, 1)
		go func() {
			start := <-started
			readsDone <- front.readOpenLoop(start, liveQueryRate, paths, endpoint)
		}()
		r, err := replayStream(ls, n, liveFixedRate, rep.tr, front, started)
		if err != nil {
			return err
		}
		reads.merge(<-readsDone)
		rep.tr.measured(r.elapsed)
		rep.ops(int64(n), r.lost(n))
		rep.check(r.complete, "fixed-rate stream: %d of %d closes became visible", len(r.fresh), n)
		rep.verify("Figure 2 over the stream", liveOracle(r.tally, ls.fold(n), r.dropped, r.stats.Missed))
		fresh = append(fresh, r.fresh...)
		deliver = append(deliver, r.deliver...)
		ingest = append(ingest, r.ingest...)
		visible = append(visible, r.visible...)
		lagMax = max(lagMax, r.lagMax)
		gaps += uint64(r.stats.Gaps)
		missed += r.stats.Missed
		late = append(late, r.late...)
		if r.metrics != nil {
			scrapes = append(scrapes, r.metrics)
		}
		done += n
	}
	// The serving heap: the capacity bursts below queue a whole stream
	// in the stream server, a different regime that would split the
	// window peaks between two levels.
	rep.e2e("peak_heap_mb", heap.peakMB(), "MB")
	sum := summarize(fresh)
	rep.onSchedule("close", late, liveFreshLimit)
	rep.e2e("result_p50_ms", sum.p50, "ms")
	rep.e2e("result_tail_ms", sum.tail, "ms")
	rep.layer("result.samples", float64(sum.n), "count")
	rep.layer("gen.lateness_max_ms", max(late.max(), reads.late.max()), "ms")
	rep.note("live: %d closes at %.0f/s: fresh_p50_ms=%.2f fresh_p99_ms(tail p%.1f)=%.2f, generator max lateness %.2fms",
		total, liveFixedRate, sum.p50, sum.tailPct, sum.tail, late.max())
	reads.report(rep, liveQueryLimit, "query mix (query_p99_ms)")
	if cfg.trace {
		rep.layer("netstream.deliver_ms_p99", summarize(deliver).tail, "ms")
		rep.layer("serve.visible_ms_p99", summarize(visible).tail, "ms")
		rep.layer("serve.ingest_event_us_p99", summarize(ingest).tail, "us")
		rep.layer("serve.lag_events_max", float64(lagMax), "count")
		rep.layer("netstream.gaps", float64(gaps), "count")
		rep.layer("netstream.missed", float64(missed), "count")
		addServeMetrics(rep, scrapes)
	}

	// Capacity: the rate a fresh service drains a whole-stream backlog
	// at, median of bursts.
	drainN := min(liveDrainCloses, len(ls.rounds))
	off := newTracer(false)
	var rates []float64
	for b := 0; b < minBursts || time.Now().Before(deadline); b++ {
		r, err := replayStream(ls, drainN, 0, off, nil, nil)
		if err != nil {
			return err
		}
		rep.ops(int64(drainN), r.lost(drainN))
		if !r.complete || r.lost(drainN) != 0 {
			rep.check(false, "capacity burst %d: %d of %d closes visible, %d events lost",
				b, len(r.fresh), drainN, r.dropped+r.stats.Missed)
			continue
		}
		rates = append(rates, steadyRate(r.seenAt, 0))
	}
	rep.e2e("capacity_per_s", median(rates), "1/s")
	rep.note("live: live_max_closes_per_s=%.1f (median of %d bursts of %d closes: %.0f)",
		median(rates), len(rates), drainN, rates)
	return nil
}

// steadyRate is the completion rate after the first skip completions:
// the drain rate once the backlog has built up.
func steadyRate(doneAt []time.Time, skip int) float64 {
	n := len(doneAt)
	if n <= skip+1 {
		return 0
	}
	return float64(n-1-skip) / doneAt[n-1].Sub(doneAt[skip]).Seconds()
}

// addServeMetrics reports the serve layer's /metrics counters as the
// mean over the scraped services.
func addServeMetrics(rep *report, scrapes []map[string]float64) {
	seals := map[string]float64{}
	var merge, batch []float64
	for _, m := range scrapes {
		for view, key := range map[string]string{"fig2_tally": "fig2", "fig3_fingerprints": "fig3", "fig4to6_ecosystem": "eco"} {
			seals[key] += m[`serve_view_seals_total{view="`+view+`"}`] / float64(len(scrapes))
			merge = append(merge, 1000*m[`serve_view_last_merge_seconds{view="`+view+`"}`])
		}
		if b := m["serve_ingest_batches_total"]; b > 0 {
			batch = append(batch, m["serve_ingest_batch_pages_total"]/b)
		}
	}
	for k, v := range seals {
		rep.layer("serve.seals."+k, v, "count")
	}
	rep.layer("serve.merge_ms", median(merge), "ms")
	rep.layer("serve.ingest_pages_per_batch", median(batch), "count")
}
