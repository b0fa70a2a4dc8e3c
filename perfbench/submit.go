package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/synth"
	"ripplestudy/internal/txq"
)

const (
	// submitHistoryPayments sizes the economy the front door serves.
	submitHistoryPayments = 4_000
	// submitTuples is the target number of viable IOU (src, dst,
	// currency) tuples; at least submitMinTuples must exist.
	submitTuples    = 384
	submitMinTuples = 256
	// submitFixedRate is the submission rate latency is reported at.
	submitFixedRate = 2000.0
	// quoteRate is the PathFind quote rate beside the submissions.
	quoteRate = 1000.0
	// submitFixedShare is the share of the run spent at the fixed
	// rate; the rest measures capacity.
	submitFixedShare = 0.7
	// submitLimit is the submit-to-applied latency limit; the submit
	// generator may run late by latenessShare of it.
	submitLimit = 50 * time.Millisecond
	// quoteLimit judges the quote generator's lateness.
	quoteLimit = 50 * time.Millisecond
	// submitBurstTxs is one capacity burst on a fresh front door, timed
	// after its first quarter (the ramp that fills the queue). The
	// capacity is the median burst rate over the bursts (at least
	// minBursts) that fit in the rest of the run.
	submitBurstTxs = 20_000
)

// tuple is one viable IOU payment route discovered at set-up.
type tuple struct {
	src, dst addr.AccountID
	cur      amount.Currency
}

// economy is the submit workload's input: the engine of a generated
// history plus the accounts and routes traffic is drawn from.
type economy struct {
	eng     *payment.Engine
	tuples  []tuple
	senders []addr.AccountID // XRP-funded users
	sinks   []addr.AccountID
}

// genEconomy generates a history and discovers the routes with live
// liquidity (shared gateway, funded line) between user pairs.
func genEconomy(seed int64) (*economy, error) {
	res, err := synth.Generate(synth.Config{Payments: submitHistoryPayments, Seed: seed, SkipSignatures: true},
		func(*ledger.Page) error { return nil })
	if err != nil {
		return nil, err
	}
	ec := &economy{eng: res.Engine}
	f := pathfind.New(res.Engine.Graph(), res.Engine.Books())
	users := res.Population.Users
	for _, u := range users {
		if res.Engine.XRPBalance(u.ID) > 10_000_000 {
			ec.senders = append(ec.senders, u.ID)
		}
		ec.sinks = append(ec.sinks, u.ID)
	}
	for i := 0; i < len(users) && len(ec.tuples) < submitTuples; i++ {
		for j := 0; j < len(users) && len(ec.tuples) < submitTuples; j++ {
			if i == j {
				continue
			}
			for _, lu := range users[i].Lines {
				shared := false
				for _, lv := range users[j].Lines {
					if lu.HostID == lv.HostID && lu.Currency == lv.Currency {
						shared = true
						break
					}
				}
				if !shared {
					continue
				}
				deliver := amount.New(lu.Currency, amount.MustParse("0.001"))
				if plan, err := f.FindPayment(users[i].ID, users[j].ID, lu.Currency, deliver); err == nil && plan != nil {
					ec.tuples = append(ec.tuples, tuple{src: users[i].ID, dst: users[j].ID, cur: lu.Currency})
					break
				}
			}
		}
	}
	if len(ec.tuples) < submitMinTuples || len(ec.senders) == 0 {
		return nil, fmt.Errorf("economy has %d viable tuples and %d XRP senders, want ≥%d and ≥1",
			len(ec.tuples), len(ec.senders), submitMinTuples)
	}
	return ec, nil
}

// traffic draws the seeded submission mix: about half direct-XRP
// payments and half IOU payments over the tuples, drawn with skew so a
// measurable share of a batch touches the same trust lines.
type traffic struct {
	ec  *economy
	rng *rand.Rand
}

func newTraffic(ec *economy, seed int64) *traffic {
	return &traffic{ec: ec, rng: rand.New(rand.NewSource(seed))}
}

// tuple draws route n·u² for uniform u: the busiest tenth of the routes
// takes about a third of the IOU traffic. A Zipf head would hand one
// seed-dependent route most of it, and the throughput with it.
func (t *traffic) tuple() tuple {
	u := t.rng.Float64()
	return t.ec.tuples[int(float64(len(t.ec.tuples))*u*u)]
}

// txs returns n fresh transactions (the front door fills in
// auto-sequences, so a transaction is never submitted twice).
func (t *traffic) txs(n int) []*ledger.Tx {
	out := make([]*ledger.Tx, n)
	for i := range out {
		if t.rng.Intn(2) == 0 {
			out[i] = &ledger.Tx{
				Type: ledger.TxPayment, Fee: 10,
				Account:     t.ec.senders[t.rng.Intn(len(t.ec.senders))],
				Destination: t.ec.sinks[t.rng.Intn(len(t.ec.sinks))],
				Amount:      amount.XRPAmount(amount.Drops(100 + t.rng.Intn(900))),
			}
			continue
		}
		tu := t.tuple()
		out[i] = &ledger.Tx{
			Type: ledger.TxPayment, Fee: 10,
			Account: tu.src, Destination: tu.dst,
			Amount: amount.New(tu.cur, amount.MustParse(fmt.Sprintf("0.000%d", 1+t.rng.Intn(9)))),
		}
	}
	return out
}

// quotes returns n seeded quote requests over the same tuples, with a
// small amount menu so repeated requests can hit the plan cache.
func (t *traffic) quotes(n int) []quoteReq {
	menu := []string{"0.001", "0.002", "0.005", "0.01"}
	out := make([]quoteReq, n)
	for i := range out {
		tu := t.tuple()
		out[i] = quoteReq{tu, amount.New(tu.cur, amount.MustParse(menu[t.rng.Intn(len(menu))]))}
	}
	return out
}

type quoteReq struct {
	tu      tuple
	deliver amount.Amount
}

// submitResult is one open-loop submission run against a fresh front
// door.
type submitResult struct {
	latency  []float64 // ms, due → Ticket.Done
	doneAt   []time.Time
	call     []float64 // µs, the Submit call (admission)
	depthSum float64
	shed     int64
	errs     int64
	late     lateness
	stats    txq.Stats
	resolved int
	admitted int
	// digest and settled are the state digest right after Drain and a
	// moment later; a drained front door must not move.
	digest, settled ledger.Hash
}

// ticketDue is an admitted ticket with the times its request was due
// and its Submit call started and returned.
type ticketDue struct {
	t                    *txq.Ticket
	due, called, started time.Time
}

// submitOpenLoop submits txs at rate through fd. One waiter goroutine
// resolves tickets in admission order (the applier resolves them in
// that order too), so no goroutine is spent per request.
func submitOpenLoop(fd *txq.FrontDoor, txs []*ledger.Tx, rate float64, start time.Time, tr *tracer) *submitResult {
	res := &submitResult{}
	pending := make(chan ticketDue, len(txs)) // sized to the number of sends
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		for td := range pending {
			<-td.t.Done()
			done := time.Now()
			res.latency = append(res.latency, ms(done.Sub(td.due)))
			res.doneAt = append(res.doneAt, done)
			res.resolved++
			root := tr.add("bench.submit", 0, td.t.ID, td.due, done)
			tr.add("gen.wait", root, td.t.ID, td.due, td.started)
			tr.add("txq.submit_call", root, td.t.ID, td.started, td.called)
			tr.add("txq.apply_wait", root, td.t.ID, td.called, done)
		}
	}()
	res.late = openLoop(start, rate, len(txs), func(i int, due time.Time) {
		started := time.Now()
		ticket, err := fd.Submit(txs[i])
		called := time.Now()
		res.call = append(res.call, us(called.Sub(started)))
		res.depthSum += float64(fd.Depth())
		switch {
		case errors.Is(err, txq.ErrQueueFull):
			res.shed++
			return
		case err != nil:
			res.errs++
			return
		}
		res.admitted++
		pending <- ticketDue{t: ticket, due: due, called: called, started: started}
	})
	close(pending)
	<-waited
	return res
}

// finish drains the front door and reads back its books and state
// digest for the oracle.
func (r *submitResult) finish(fd *txq.FrontDoor) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fd.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	r.digest = fd.StateDigest()
	time.Sleep(5 * time.Millisecond)
	r.settled = fd.StateDigest()
	r.stats = fd.StatsNow()
	return nil
}

// verify applies the submit oracle to the run.
func (r *submitResult) verify(rep *report, what string) {
	rep.verify(what, submitOracle(r.stats, r.resolved, r.admitted, r.digest, r.settled))
}

// runSubmit measures the write path with quote reads beside it.
func runSubmit(cfg config, rep *report) error {
	ec, err := timeSetup(rep, func(int) (*economy, error) { return genEconomy(cfg.seed) }, nil)
	if err != nil {
		return err
	}
	gen := newTraffic(ec, cfg.seed)
	fixedN := int(cfg.seconds * submitFixedShare * submitFixedRate)
	txs := gen.txs(fixedN)
	quotes := gen.quotes(int(cfg.seconds * submitFixedShare * quoteRate))

	heap := startHeapSampler()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	fd := txq.New(ec.eng.Clone(), txq.Options{})
	start := time.Now().Add(2 * time.Millisecond)
	type quoteRun struct {
		latency, call []float64
		failed        int64
		late          lateness
	}
	qDone := make(chan quoteRun, 1)
	go func() {
		var q quoteRun
		q.late = openLoop(start, quoteRate, len(quotes), func(i int, due time.Time) {
			t := time.Now()
			_, err := fd.PathFind(quotes[i].tu.src, quotes[i].tu.dst, quotes[i].tu.cur, quotes[i].deliver)
			q.call = append(q.call, us(time.Since(t)))
			if err != nil {
				q.failed++
				return
			}
			q.latency = append(q.latency, ms(time.Since(due)))
		})
		qDone <- q
	}()
	fixed := submitOpenLoop(fd, txs, submitFixedRate, start, rep.tr)
	q := <-qDone
	rep.tr.measured(time.Since(start))
	if err := fixed.finish(fd); err != nil {
		return err
	}
	fd.Close()

	st := fixed.stats
	rep.ops(int64(fixedN), fixed.shed+fixed.errs)
	rep.ops(int64(len(quotes)), q.failed)
	fixed.verify(rep, "fixed-rate submissions")
	rep.check(fixed.shed == 0 && fixed.errs == 0, "fixed-rate run shed %d and failed %d submissions", fixed.shed, fixed.errs)
	rep.onSchedule("submit", fixed.late, submitLimit)
	rep.onSchedule("quote", q.late, quoteLimit)

	sub := summarize(fixed.latency)
	qs := summarize(q.latency)
	rep.e2e("result_p50_ms", sub.p50, "ms")
	rep.e2e("result_tail_ms", sub.tail, "ms")
	rep.e2e("side_tail_ms", qs.tail, "ms")
	rep.layer("result.samples", float64(sub.n), "count")
	rep.layer("side.samples", float64(qs.n), "count")
	rep.layer("gen.lateness_max_ms", max(fixed.late.max(), q.late.max()), "ms")
	rep.note("submit: %d at %.0f/s: submit_p50_ms=%.3f submit_p99_ms(p%.1f)=%.3f; %d quotes at %.0f/s: quote_p99_us=%.0f; generator max lateness %.2fms",
		fixedN, submitFixedRate, sub.p50, sub.tailPct, sub.tail, qs.n, quoteRate, qs.tail*1000, max(fixed.late.max(), q.late.max()))
	if cfg.trace {
		rep.layer("txq.submit_call_us_p99", summarize(fixed.call).tail, "us")
		rep.layer("txq.depth_mean", fixed.depthSum/float64(fixedN), "count")
		rep.layer("txq.shed", float64(st.Shed), "count")
		if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
			rep.layer("txq.quote_cache_hit_ratio", float64(st.CacheHits)/float64(lookups), "ratio")
		}
		rep.layer("txq.quote_cache_stale", float64(st.CacheStale), "count")
		rep.layer("txq.quote_call_us_p50", median(q.call), "us")
	}

	// Capacity: the submission rate the front door sustains with its
	// admission queue full (backpressure holds the generator at the
	// queue), median of bursts on fresh front doors over the same state.
	off := newTracer(false)
	var rates []float64
	// Batching and conflicts happen once the queue holds more than one
	// transaction, so they are counted over the fixed-rate run and the
	// bursts together.
	batches, applied, planned, conflicts := st.Batches, st.Applied, st.PlannedAhead+st.Conflicts, st.Conflicts
	for b := 0; b < minBursts || time.Now().Before(deadline); b++ {
		fd := txq.New(ec.eng.Clone(), txq.Options{Backpressure: true, SubmitWait: time.Minute})
		r := submitOpenLoop(fd, gen.txs(submitBurstTxs), math.Inf(1), time.Now(), off)
		err := r.finish(fd)
		fd.Close()
		if err != nil {
			return err
		}
		rep.ops(submitBurstTxs, r.shed+r.errs)
		r.verify(rep, fmt.Sprintf("capacity burst %d", b))
		rates = append(rates, steadyRate(r.doneAt, submitBurstTxs/4))
		batches, applied = batches+r.stats.Batches, applied+r.stats.Applied
		planned, conflicts = planned+r.stats.PlannedAhead+r.stats.Conflicts, conflicts+r.stats.Conflicts
	}
	if cfg.trace && batches > 0 && planned > 0 {
		rep.layer("txq.txs_per_batch", float64(applied)/float64(batches), "count")
		rep.layer("txq.replan_ratio", float64(conflicts)/float64(planned), "ratio")
	}
	rep.e2e("peak_heap_mb", heap.peakMB(), "MB")
	rep.e2e("capacity_per_s", median(rates), "1/s")
	rep.note("submit: submit_max_per_s=%.0f (median of %d bursts of %d with a full queue: %.0f)",
		median(rates), len(rates), submitBurstTxs, rates)
	return nil
}
