package txq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/replay"
	"ripplestudy/internal/synth"
)

// generate builds a small synthetic history in memory.
func generate(t testing.TB, payments int, seed int64) []*ledger.Page {
	t.Helper()
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{
		Payments: payments, Seed: seed, SkipSignatures: true,
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// drainAndClose waits for the front door to resolve everything admitted
// and shuts it down.
func drainAndClose(t testing.TB, fd *FrontDoor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fd.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fd.Close()
}

// TestFrontDoorDifferentialDigest is the acceptance differential: the
// same post-snapshot history, once through sequential replay.Run and
// once as live submissions through the admission queue and optimistic
// batch applier, must land on a bit-identical state digest. Equal fees
// make the escalation heap globally FIFO, and auto-sequencing mirrors
// replayTx's sequence rewrite, so apply order and applied bytes match.
func TestFrontDoorDifferentialDigest(t *testing.T) {
	pages := generate(t, 3000, 42)
	mid := pages[len(pages)/2].Header.Sequence

	want, err := replay.Run(replay.FromPages(pages), mid)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := replay.BuildState(replay.FromPages(pages), mid)
	if err != nil {
		t.Fatal(err)
	}
	removedList := eng.RemoveMarketMakers()
	removed := make(map[addr.AccountID]bool, len(removedList))
	for _, a := range removedList {
		removed[a] = true
	}

	fd := New(eng, Options{QueueDepth: 512, BatchSize: 64, Backpressure: true, SubmitWait: 30 * time.Second})
	submitted := 0
	for _, p := range pages {
		if p.Header.Sequence <= mid {
			continue
		}
		for i, tx := range p.Txs {
			meta := p.Metas[i]
			// The replay.classify filters: trust-line updates not touching
			// removed accounts, successful indirect payments whose
			// endpoints survive the market-maker ablation.
			switch tx.Type {
			case ledger.TxTrustSet:
				if removed[tx.Account] || removed[tx.LimitPeer] {
					continue
				}
			case ledger.TxPayment:
				if !meta.Result.Succeeded() || tx.IsDirectXRP() {
					continue
				}
				if removed[tx.Account] || removed[tx.Destination] {
					continue
				}
			default:
				continue
			}
			sub := *tx
			sub.Sequence = 0 // auto-sequence, as replayTx rewrites
			if _, err := fd.Submit(&sub); err != nil {
				t.Fatalf("submit tx %d of page %d: %v", i, p.Header.Sequence, err)
			}
			submitted++
		}
	}
	drainAndClose(t, fd)

	if got := fd.StateDigest(); got != want.StateDigest {
		t.Fatalf("queued live submissions digest %s != sequential replay digest %s",
			got.Short(), want.StateDigest.Short())
	}
	st := fd.StatsNow()
	if st.Applied != uint64(submitted) {
		t.Errorf("applied = %d, want %d (every admitted tx resolved)", st.Applied, submitted)
	}
	if st.Shed != 0 || st.Rejected != 0 {
		t.Errorf("shed = %d rejected = %d, want 0/0 under backpressure", st.Shed, st.Rejected)
	}
	if submitted > 0 && st.Batches == 0 {
		t.Error("no batches recorded")
	}
	t.Logf("differential: %d txs, %d batches, planned ahead %d, conflicts %d",
		submitted, st.Batches, st.PlannedAhead, st.Conflicts)
}

// TestFrontDoorConcurrentPerAccountOrdering hammers the queue from many
// account goroutines with explicit sequences and escalating fees. Any
// same-account reorder would apply a later sequence first and fail with
// BadSequence, so "every tx succeeded" is the ordering invariant.
func TestFrontDoorConcurrentPerAccountOrdering(t *testing.T) {
	const accounts = 8
	const perAccount = 40

	eng := payment.NewEngine()
	sink := acct(10_000)
	eng.Fund(sink, 1_000_000)
	senders := make([]addr.AccountID, accounts)
	for i := range senders {
		senders[i] = acct(uint64(100 + i))
		eng.Fund(senders[i], 100_000_000)
	}
	fd := New(eng, Options{QueueDepth: 64, BatchSize: 16, Backpressure: true, SubmitWait: 30 * time.Second})

	var wg sync.WaitGroup
	tickets := make([][]*Ticket, accounts)
	for i := range senders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from := senders[i]
			for s := 0; s < perAccount; s++ {
				tx := &ledger.Tx{
					Type:        ledger.TxPayment,
					Account:     from,
					Sequence:    uint32(1 + s), // funded accounts start at sequence 1
					Fee:         amount.Drops(10 + (s%7)*10),
					Destination: sink,
					Amount:      amount.XRPAmount(100),
				}
				tk, err := fd.Submit(tx)
				if err != nil {
					t.Errorf("account %d seq %d: %v", i, s+1, err)
					return
				}
				tickets[i] = append(tickets[i], tk)
			}
		}(i)
	}
	wg.Wait()
	drainAndClose(t, fd)

	ctx := context.Background()
	for i, tks := range tickets {
		for s, tk := range tks {
			st, err := tk.Wait(ctx)
			if err != nil {
				t.Fatalf("account %d seq %d status: %v", i, s+1, err)
			}
			if !st.Succeeded {
				t.Fatalf("account %d seq %d result %q — per-account sequence order violated", i, s+1, st.Result)
			}
		}
	}
	fd.WithEngine(func(eng *payment.Engine) {
		for i, from := range senders {
			if next := eng.NextSequence(from); next != perAccount+1 {
				t.Errorf("account %d next sequence = %d, want %d", i, next, perAccount+1)
			}
		}
	})
}

// TestFrontDoorShedFailFast pins the fail-fast admission path: with no
// backpressure a full queue sheds immediately with ErrQueueFull.
func TestFrontDoorShedFailFast(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 100_000_000)
	fd := New(eng, Options{QueueDepth: 2, BatchSize: 256})

	// Depth 2: submissions beyond the queue bound shed until the applier
	// frees slots; at least one of an immediate burst of 50 must shed.
	var shed, admitted int
	for i := 0; i < 50; i++ {
		tx := &ledger.Tx{
			Type: ledger.TxPayment, Account: from, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(100),
		}
		_, err := fd.Submit(tx)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull):
			shed++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	drainAndClose(t, fd)
	st := fd.StatsNow()
	if st.Offered != 50 {
		t.Fatalf("offered = %d, want 50", st.Offered)
	}
	if st.Shed != uint64(shed) || st.Applied != uint64(admitted) {
		t.Errorf("stats shed=%d applied=%d, observed shed=%d admitted=%d", st.Shed, st.Applied, shed, admitted)
	}
	if st.Shed+st.Applied+st.Rejected != st.Offered {
		t.Errorf("shed(%d) + applied(%d) + rejected(%d) != offered(%d)", st.Shed, st.Applied, st.Rejected, st.Offered)
	}
}

// FuzzAdmission fuzzes the admission boundary: arbitrary bursts against
// arbitrary queue depths, with a sprinkle of malformed submissions, must
// always account for every offer — shed + applied + rejected == offered
// — and never deadlock.
func FuzzAdmission(f *testing.F) {
	f.Add(uint8(8), uint8(2), false, uint8(0))
	f.Add(uint8(50), uint8(1), true, uint8(3))
	f.Add(uint8(200), uint8(16), false, uint8(7))
	f.Fuzz(func(t *testing.T, n, depth uint8, backpressure bool, malformedEvery uint8) {
		eng := payment.NewEngine()
		from := acct(1)
		eng.Fund(from, 1_000_000_000)
		fd := New(eng, Options{
			QueueDepth:   int(depth%16) + 1,
			BatchSize:    8,
			Backpressure: backpressure,
			SubmitWait:   20 * time.Second,
		})

		var wg sync.WaitGroup
		const submitters = 4
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < int(n); i++ {
					var tx *ledger.Tx
					if malformedEvery > 0 && i%int(malformedEvery)+1 == 1 && w == 0 {
						tx = &ledger.Tx{Type: ledger.TxType(99)} // unknown type: rejected
					} else {
						tx = &ledger.Tx{
							Type: ledger.TxPayment, Account: from, Fee: 10,
							Destination: acct(2), Amount: amount.XRPAmount(10),
						}
					}
					_, err := fd.Submit(tx)
					if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrMalformed) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		drainAndClose(t, fd)
		st := fd.StatsNow()
		if st.Shed+st.Applied+st.Rejected != st.Offered {
			t.Fatalf("shed(%d) + applied(%d) + rejected(%d) != offered(%d)",
				st.Shed, st.Applied, st.Rejected, st.Offered)
		}
		if backpressure && st.Offered == uint64(submitters)*uint64(n) && st.Depth != 0 {
			t.Fatalf("depth = %d after drain", st.Depth)
		}
	})
}

// TestFrontDoorMalformedRejected covers the pre-admission rejections.
func TestFrontDoorMalformedRejected(t *testing.T) {
	eng := payment.NewEngine()
	fd := New(eng, Options{QueueDepth: 4})
	defer fd.Close()
	if _, err := fd.Submit(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("nil tx: err = %v, want ErrMalformed", err)
	}
	if _, err := fd.Submit(&ledger.Tx{Type: ledger.TxPayment}); !errors.Is(err, ErrMalformed) {
		t.Errorf("zero account: err = %v, want ErrMalformed", err)
	}
	from := acct(1)
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Sequence: 3, Fee: 10,
		Destination: acct(2), Amount: amount.XRPAmount(1)}
	if _, err := fd.Submit(tx); err != nil {
		t.Fatalf("explicit sequence submit: %v", err)
	}
	dup := *tx
	if _, err := fd.Submit(&dup); !errors.Is(err, ErrDuplicateSequence) {
		t.Errorf("duplicate explicit sequence: err = %v, want ErrDuplicateSequence", err)
	}
	st := fd.StatsNow()
	if st.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", st.Rejected)
	}
}

// TestFrontDoorSubmitAfterClose pins ErrClosed.
func TestFrontDoorSubmitAfterClose(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 1_000_000)
	fd := New(eng, Options{QueueDepth: 4})
	fd.Close()
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
		Destination: acct(2), Amount: amount.XRPAmount(1)}
	if _, err := fd.Submit(tx); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestFrontDoorStatusLookup exercises the as-submitted vs as-applied
// hash lookup for auto-sequenced submissions.
func TestFrontDoorStatusLookup(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 100_000_000)
	fd := New(eng, Options{QueueDepth: 4, Backpressure: true})
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
		Destination: acct(2), Amount: amount.XRPAmount(500)}
	tk, err := fd.Submit(tx)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Succeeded || st.State != "applied" {
		t.Fatalf("status = %+v, want applied+succeeded", st)
	}
	if st.Sequence != 1 {
		t.Errorf("auto-assigned sequence = %d, want 1", st.Sequence)
	}
	// Both the as-submitted hash (the ticket's) and the as-applied hash
	// (the status') must resolve.
	if _, ok := fd.Status(tk.Hash); !ok {
		t.Error("as-submitted hash lookup failed")
	}
	if _, ok := fd.Status(st.Hash); !ok {
		t.Error("as-applied hash lookup failed")
	}
	if st.WaitNS <= 0 {
		t.Error("submit-to-applied latency not recorded")
	}
	drainAndClose(t, fd)
}
