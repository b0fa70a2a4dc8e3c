package txq

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
)

// Sentinel errors surfaced by Submit and PathFind.
var (
	// ErrClosed is returned once the front door is shut down.
	ErrClosed = errors.New("txq: front door closed")
	// ErrQueueFull means admission control shed the submission: the
	// queue was at depth and either Backpressure is off or the wait
	// timed out.
	ErrQueueFull = errors.New("txq: queue full")
	// ErrDuplicateSequence means the account already has a queued
	// transaction with the same explicit sequence.
	ErrDuplicateSequence = errors.New("txq: duplicate sequence for account")
	// ErrMalformed rejects a submission the queue will not accept at
	// all (nil tx, zero account, unknown type).
	ErrMalformed = errors.New("txq: malformed submission")
)

// plannedRoute is the optimistic planning output attached to a queued
// payment: the plan (nil for a certified PathDry) and the read set that
// certifies it.
type plannedRoute struct {
	plan  *pathfind.Plan
	reads pathfind.ReadSet
}

// Options configures a FrontDoor. The zero value picks serving
// defaults; see withDefaults.
type Options struct {
	// QueueDepth bounds admitted-but-unapplied transactions. Submit
	// sheds (or waits, with Backpressure) beyond it. Default 1024.
	QueueDepth int
	// BatchSize is how many queued transactions the applier drains per
	// optimistic planning batch. Default 256 (replay's planBatchSize).
	BatchSize int
	// PlanWorkers is the number of concurrent planner goroutines per
	// batch. Default GOMAXPROCS.
	PlanWorkers int
	// Backpressure makes Submit wait up to SubmitWait for queue space
	// instead of failing fast with ErrQueueFull.
	Backpressure bool
	// SubmitWait caps the backpressure wait. Default 2s.
	SubmitWait time.Duration
	// CacheSize bounds the path-plan quote cache. Default 4096 entries.
	CacheSize int
	// StatusCapacity bounds how many resolved transaction statuses are
	// retained for /v1/tx_status. Default 8192.
	StatusCapacity int
	// LatencyWindow sizes the quote / submit-to-applied latency rings.
	// Default 512 samples.
	LatencyWindow int
}

func (o Options) withDefaults() Options {
	if o.QueueDepth < 1 {
		o.QueueDepth = 1024
	}
	if o.BatchSize < 1 {
		o.BatchSize = 256
	}
	if o.PlanWorkers < 1 {
		o.PlanWorkers = runtime.GOMAXPROCS(0)
	}
	if o.SubmitWait <= 0 {
		o.SubmitWait = 2 * time.Second
	}
	if o.CacheSize < 1 {
		o.CacheSize = 4096
	}
	if o.StatusCapacity < 1 {
		o.StatusCapacity = 8192
	}
	if o.LatencyWindow < 1 {
		o.LatencyWindow = 512
	}
	return o
}

// TxStatus is the queryable outcome record for one admitted
// transaction.
type TxStatus struct {
	ID      uint64         `json:"id"`
	Hash    ledger.Hash    `json:"hash"`
	Account addr.AccountID `json:"account"`
	// Sequence is the effective sequence: 0 while an auto-sequenced
	// submission is still queued, filled in at apply time.
	Sequence uint32 `json:"sequence"`
	// State is "queued" or "applied".
	State string `json:"state"`
	// Result is the engine result code once applied.
	Result    string `json:"result,omitempty"`
	Succeeded bool   `json:"succeeded"`
	// WaitNS is the submit-to-applied latency in nanoseconds.
	WaitNS int64 `json:"wait_ns,omitempty"`
}

// txRecord pairs a status with its completion signal. subHash keeps the
// as-submitted hash resolvable after an auto-sequenced transaction's
// final hash diverges from it.
type txRecord struct {
	st      TxStatus
	subHash ledger.Hash
	done    chan struct{}
}

// Ticket is Submit's receipt: wait on Done (or Wait) for the applied
// outcome, then read it back via Status.
type Ticket struct {
	ID uint64
	// Hash is the as-submitted transaction hash. For auto-sequenced
	// submissions the as-applied hash differs (the sequence is filled
	// in); Status reports the final one.
	Hash ledger.Hash

	fd  *FrontDoor
	rec *txRecord
}

// Done is closed when the transaction has been applied.
func (t *Ticket) Done() <-chan struct{} { return t.rec.done }

// Wait blocks until the transaction is applied or ctx expires, and
// returns the final status.
func (t *Ticket) Wait(ctx context.Context) (TxStatus, error) {
	select {
	case <-t.rec.done:
		return t.fd.statusByID(t.ID)
	case <-ctx.Done():
		return TxStatus{}, ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the front door's counters.
type Stats struct {
	Depth        int    `json:"depth"`
	Offered      uint64 `json:"offered"`
	Shed         uint64 `json:"shed"`
	Rejected     uint64 `json:"rejected"`
	Applied      uint64 `json:"applied"`
	Succeeded    uint64 `json:"succeeded"`
	Batches      uint64 `json:"batches"`
	PlannedAhead uint64 `json:"planned_ahead"`
	Conflicts    uint64 `json:"conflicts"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheStale   uint64 `json:"cache_stale"`
	CacheEvicted uint64 `json:"cache_evicted"`
	CacheSize    int    `json:"cache_size"`
	Epoch        uint64 `json:"epoch"`
}

// FrontDoor is the online submission and quote surface over a payment
// engine. It owns the engine exclusively: quote readers share it under
// a read lock while the single applier goroutine batches queued
// transactions through the optimistic planner (plan under RLock, apply
// under Lock), exactly the replay.RunParallel protocol applied to live
// traffic instead of history.
type FrontDoor struct {
	opts Options

	// mu guards the engine (and, transitively, its graph and books).
	// The plan-cache epoch only advances inside the write-locked apply
	// section, so readers always quote against a state consistent with
	// the epoch they stamp.
	mu  sync.RWMutex
	eng *payment.Engine

	q     *queue
	slots chan struct{} // admission semaphore: one token per queued tx
	cache *planCache

	planners []*pathfind.Finder // applier-owned, run under RLock
	quoters  sync.Pool          // *pathfind.Finder for PathFind readers

	stMu     sync.Mutex
	statuses map[uint64]*txRecord
	byHash   map[ledger.Hash]uint64 // final hash → id (last wins)
	resolved []uint64               // FIFO of applied ids, for eviction
	nextID   uint64

	// Applier batch scratch (single goroutine, no lock needed).
	dirtyAcct map[addr.AccountID]struct{}
	dirtyPair map[orderbook.Pair]struct{}

	met    metrics
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New wraps eng in a front door and starts the applier. The caller
// hands over the engine: touching it directly afterwards races the
// applier.
func New(eng *payment.Engine, opts Options) *FrontDoor {
	opts = opts.withDefaults()
	fd := &FrontDoor{
		opts:      opts,
		eng:       eng,
		q:         newQueue(),
		slots:     make(chan struct{}, opts.QueueDepth),
		cache:     newPlanCache(opts.CacheSize),
		statuses:  make(map[uint64]*txRecord),
		byHash:    make(map[ledger.Hash]uint64),
		dirtyAcct: make(map[addr.AccountID]struct{}),
		dirtyPair: make(map[orderbook.Pair]struct{}),
	}
	fd.met.init(opts.LatencyWindow)
	fd.planners = make([]*pathfind.Finder, opts.PlanWorkers)
	for i := range fd.planners {
		fd.planners[i] = pathfind.New(eng.Graph(), eng.Books(), pathfind.WithRecording())
	}
	fd.quoters.New = func() any {
		return pathfind.New(eng.Graph(), eng.Books(), pathfind.WithRecording())
	}
	fd.wg.Add(1)
	go fd.applyLoop()
	return fd
}

// Submit offers one transaction to the queue. A Sequence of 0 requests
// auto-sequencing: the applier fills in the account's next sequence at
// apply time (so the as-applied hash differs from the as-submitted
// one). Admission is bounded by QueueDepth — beyond it Submit sheds
// with ErrQueueFull, or waits up to SubmitWait when Backpressure is on.
func (fd *FrontDoor) Submit(tx *ledger.Tx) (*Ticket, error) {
	fd.met.offered.Add(1)
	if tx == nil || tx.Account.IsZero() || !knownType(tx.Type) {
		fd.met.rejected.Add(1)
		return nil, ErrMalformed
	}
	if fd.closed.Load() {
		fd.met.rejected.Add(1)
		return nil, ErrClosed
	}
	// Admission: one slot per queued transaction, released when the
	// applier resolves it.
	select {
	case fd.slots <- struct{}{}:
	default:
		if !fd.opts.Backpressure {
			fd.met.shed.Add(1)
			return nil, ErrQueueFull
		}
		timer := time.NewTimer(fd.opts.SubmitWait)
		select {
		case fd.slots <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			fd.met.shed.Add(1)
			return nil, ErrQueueFull
		}
	}

	qt := &queuedTx{
		tx:       tx,
		fee:      effectiveFee(tx),
		autoSeq:  tx.Sequence == 0,
		enqueued: time.Now(),
	}
	rec := &txRecord{subHash: tx.Hash(), done: make(chan struct{})}
	fd.stMu.Lock()
	fd.nextID++
	qt.id = fd.nextID
	rec.st = TxStatus{
		ID:       qt.id,
		Hash:     rec.subHash,
		Account:  tx.Account,
		Sequence: tx.Sequence,
		State:    "queued",
	}
	fd.statuses[qt.id] = rec
	fd.byHash[rec.subHash] = qt.id
	fd.stMu.Unlock()

	if err := fd.q.push(qt); err != nil {
		<-fd.slots
		fd.met.rejected.Add(1)
		fd.stMu.Lock()
		if fd.byHash[rec.st.Hash] == qt.id {
			delete(fd.byHash, rec.st.Hash)
		}
		delete(fd.statuses, qt.id)
		fd.stMu.Unlock()
		return nil, err
	}
	fd.met.submitted.Add(1)
	return &Ticket{ID: qt.id, Hash: rec.subHash, fd: fd, rec: rec}, nil
}

// knownType reports whether the engine can apply the transaction type.
func knownType(t ledger.TxType) bool {
	switch t {
	case ledger.TxPayment, ledger.TxTrustSet, ledger.TxOfferCreate, ledger.TxOfferCancel:
		return true
	}
	return false
}

// effectiveFee is the fee the escalation heap orders by: the declared
// fee floored at the engine's base fee (a zero-fee submission competes
// at the minimum, it does not sort below it).
func effectiveFee(tx *ledger.Tx) amount.Drops {
	if tx.Fee < payment.BaseFee {
		return payment.BaseFee
	}
	return tx.Fee
}

// applyLoop is the single applier goroutine: drain a batch, plan it
// against the frozen engine under the read lock, apply in queue order
// under the write lock, resolve tickets. Exits when the queue is closed
// and drained.
func (fd *FrontDoor) applyLoop() {
	defer fd.wg.Done()
	for {
		batch := fd.q.popBatch(fd.opts.BatchSize)
		if batch == nil {
			return
		}
		fd.mu.RLock()
		fd.planBatch(batch)
		fd.mu.RUnlock()
		fd.mu.Lock()
		fd.applyBatch(batch)
		fd.mu.Unlock()
		fd.met.batches.Add(1)
	}
}

// planBatch mirrors replay.planBatch: fan the batch's indirect payments
// across the worker finders while the engine state is frozen. A nil
// plan with planned=true is a certified PathDry verdict; its read set
// still validates it.
func (fd *FrontDoor) planBatch(batch []*queuedTx) {
	idx := make(chan int, len(batch))
	n := 0
	for i, qt := range batch {
		if qt.tx.Type != ledger.TxPayment || qt.tx.IsDirectXRP() {
			continue
		}
		idx <- i
		n++
	}
	close(idx)
	if n == 0 {
		return
	}
	workers := min(len(fd.planners), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(f *pathfind.Finder) {
			defer wg.Done()
			for i := range idx {
				qt := batch[i]
				tx := qt.tx
				srcCur := tx.Amount.Currency
				if !tx.SendMax.IsZero() {
					srcCur = tx.SendMax.Currency
				}
				plan, err := f.FindPayment(tx.Account, tx.Destination, srcCur, tx.Amount)
				if err != nil {
					plan = nil
				}
				route := &plannedRoute{plan: plan}
				f.AppendReadSet(&route.reads)
				qt.plan = route
				qt.planned = true
			}
		}(fd.planners[w])
	}
	wg.Wait()
}

// applyBatch commits the batch in queue order under the engine write
// lock, re-planning inline whenever an earlier commit in the batch
// dirtied a plan's read set, then advances the quote-cache epoch with
// everything the batch mutated. Called with fd.mu held for writing.
func (fd *FrontDoor) applyBatch(batch []*queuedTx) {
	clear(fd.dirtyAcct)
	clear(fd.dirtyPair)
	for _, qt := range batch {
		tx := qt.tx
		if qt.autoSeq {
			clone := *tx
			clone.Sequence = fd.eng.NextSequence(tx.Account)
			tx = &clone
		}
		// OfferCancel mutates a pair we can only name before the offer
		// is gone.
		var cancelPair *orderbook.Pair
		if tx.Type == ledger.TxOfferCancel {
			if o := fd.eng.Books().Lookup(tx.Account, tx.OfferSequence); o != nil {
				p := orderbook.Pair{Pays: o.Pays.Currency, Gets: o.Gets.Currency}
				cancelPair = &p
			}
		}
		var meta *ledger.TxMeta
		var err error
		if tx.Type == ledger.TxPayment && qt.planned && fd.clean(&qt.plan.reads) {
			meta, err = fd.eng.ApplyPlanned(tx, qt.plan.plan)
			fd.met.plannedAhead.Add(1)
		} else {
			if qt.planned {
				fd.met.conflicts.Add(1)
			}
			meta, err = fd.eng.Apply(tx)
		}
		if meta != nil && meta.Result.Succeeded() {
			switch tx.Type {
			case ledger.TxPayment:
				fd.markExecuted()
			case ledger.TxTrustSet:
				fd.dirtyAcct[tx.Account] = struct{}{}
				fd.dirtyAcct[tx.LimitPeer] = struct{}{}
			case ledger.TxOfferCreate:
				fd.dirtyPair[orderbook.Pair{
					Pays: tx.TakerPays.Currency,
					Gets: tx.TakerGets.Currency,
				}] = struct{}{}
			case ledger.TxOfferCancel:
				if cancelPair != nil {
					fd.dirtyPair[*cancelPair] = struct{}{}
				}
			}
		}
		fd.resolve(qt, tx, meta, err)
	}
	// Inside the write-locked section: no reader can compute a quote
	// against the superseded state after this epoch advance.
	fd.cache.invalidate(fd.dirtyAcct, fd.dirtyPair)
}

// clean reports whether nothing in the read set has been dirtied by an
// earlier commit in this batch (replay.applier.clean).
func (fd *FrontDoor) clean(rs *pathfind.ReadSet) bool {
	if len(fd.dirtyAcct) > 0 {
		for _, a := range rs.Accounts {
			if _, dirty := fd.dirtyAcct[a]; dirty {
				return false
			}
		}
	}
	if len(fd.dirtyPair) > 0 {
		for _, p := range rs.Pairs {
			if _, dirty := fd.dirtyPair[p]; dirty {
				return false
			}
		}
	}
	return true
}

// markExecuted records the state the just-committed payment mutated
// (replay.applier.markExecuted).
func (fd *FrontDoor) markExecuted() {
	plan := fd.eng.ExecutedPlan()
	if plan == nil {
		return
	}
	for _, fl := range plan.TrustFlows {
		fd.dirtyAcct[fl.From] = struct{}{}
		fd.dirtyAcct[fl.To] = struct{}{}
	}
	for _, q := range plan.Quotes {
		fd.dirtyPair[q.Pair] = struct{}{}
	}
}

// resolve finalizes one transaction's status, signals its waiter, and
// releases its admission slot.
func (fd *FrontDoor) resolve(qt *queuedTx, applied *ledger.Tx, meta *ledger.TxMeta, err error) {
	wait := time.Since(qt.enqueued)
	result := "internal error"
	succeeded := false
	if err == nil && meta != nil {
		result = meta.Result.String()
		succeeded = meta.Result.Succeeded()
	} else if err != nil {
		result = fmt.Sprintf("internal error: %v", err)
	}
	finalHash := applied.Hash()

	fd.stMu.Lock()
	rec := fd.statuses[qt.id]
	if rec != nil {
		rec.st.State = "applied"
		rec.st.Hash = finalHash
		rec.st.Sequence = applied.Sequence
		rec.st.Result = result
		rec.st.Succeeded = succeeded
		rec.st.WaitNS = wait.Nanoseconds()
		// Both the as-submitted and as-applied hashes resolve; clients
		// hold the former until they read the status back.
		if finalHash != rec.subHash {
			fd.byHash[finalHash] = qt.id
		}
		fd.resolved = append(fd.resolved, qt.id)
		for len(fd.resolved) > fd.opts.StatusCapacity {
			old := fd.resolved[0]
			fd.resolved = fd.resolved[1:]
			if gone, ok := fd.statuses[old]; ok {
				if fd.byHash[gone.st.Hash] == old {
					delete(fd.byHash, gone.st.Hash)
				}
				if fd.byHash[gone.subHash] == old {
					delete(fd.byHash, gone.subHash)
				}
				delete(fd.statuses, old)
			}
		}
	}
	fd.stMu.Unlock()
	if rec != nil {
		close(rec.done)
	}
	<-fd.slots
	fd.met.applied.Add(1)
	if succeeded {
		fd.met.succeeded.Add(1)
	}
	fd.met.submitLat.record(wait)
}

// PathFind answers a ripple_path_find-style quote: the best liquidity
// for delivering `deliver` to dst funded in srcCur from src. Answers
// come from the read-set-invalidated cache when valid, otherwise from a
// fresh recording search against the live engine under the read lock.
func (fd *FrontDoor) PathFind(src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) (Quote, error) {
	start := time.Now()
	defer func() { fd.met.quoteLat.record(time.Since(start)) }()
	if fd.closed.Load() {
		return Quote{}, ErrClosed
	}
	if srcCur.IsXRP() && deliver.Currency.IsXRP() {
		// Direct XRP transfers need no path; mirror the engine, which
		// never consults the finder for them.
		return Quote{
			Found:       true,
			Delivered:   deliver.Value,
			SourceCost:  deliver.Value,
			SrcCurrency: srcCur,
			DstCurrency: deliver.Currency,
			Epoch:       fd.cache.currentEpoch(),
		}, nil
	}
	key := quoteKey{src: src, dst: dst, srcCur: srcCur, dstCur: deliver.Currency, deliver: deliver.Value}
	if q, ok := fd.cache.get(key); ok {
		return q, nil
	}

	fd.mu.RLock()
	f := fd.quoters.Get().(*pathfind.Finder)
	plan, err := f.FindPayment(src, dst, srcCur, deliver)
	var reads pathfind.ReadSet
	f.AppendReadSet(&reads)
	fd.quoters.Put(f)
	epoch := fd.cache.currentEpoch()
	fd.mu.RUnlock()

	if err != nil && !errors.Is(err, pathfind.ErrNoPath) {
		return Quote{}, err
	}
	q := Quote{
		SrcCurrency: srcCur,
		DstCurrency: deliver.Currency,
		Epoch:       epoch,
	}
	if err == nil && plan != nil {
		q.Found = true
		q.Delivered = plan.Delivered
		q.SourceCost = plan.SourceCost
		q.Paths = append([]pathfind.PathInfo(nil), plan.Paths...)
		q.UsedBridge = plan.UsedBridge
	}
	fd.cache.put(key, q, reads)
	return q, nil
}

// Status looks up a transaction by its as-submitted or as-applied hash.
func (fd *FrontDoor) Status(h ledger.Hash) (TxStatus, bool) {
	fd.stMu.Lock()
	defer fd.stMu.Unlock()
	id, ok := fd.byHash[h]
	if !ok {
		return TxStatus{}, false
	}
	rec := fd.statuses[id]
	if rec == nil {
		return TxStatus{}, false
	}
	return rec.st, true
}

func (fd *FrontDoor) statusByID(id uint64) (TxStatus, error) {
	fd.stMu.Lock()
	defer fd.stMu.Unlock()
	rec := fd.statuses[id]
	if rec == nil {
		return TxStatus{}, errors.New("txq: status evicted")
	}
	return rec.st, nil
}

// Depth returns the current queued-but-unresolved count (admission
// slots held).
func (fd *FrontDoor) Depth() int { return len(fd.slots) }

// Epoch returns the current trust-graph epoch.
func (fd *FrontDoor) Epoch() uint64 { return fd.cache.currentEpoch() }

// StateDigest returns the engine's running state digest under the read
// lock — with the queue drained it is directly comparable to a
// sequential replay of the same transactions.
func (fd *FrontDoor) StateDigest() ledger.Hash {
	fd.mu.RLock()
	defer fd.mu.RUnlock()
	return fd.eng.StateDigest()
}

// WithEngine runs fn with the engine under the read lock. Serving
// handlers use it for read-only account probes (existence, next
// sequence) without racing the applier.
func (fd *FrontDoor) WithEngine(fn func(eng *payment.Engine)) {
	fd.mu.RLock()
	defer fd.mu.RUnlock()
	fn(fd.eng)
}

// Drain waits until every admitted transaction has resolved or ctx
// expires.
func (fd *FrontDoor) Drain(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if fd.q.size() == 0 && len(fd.slots) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close shuts the front door: new submissions fail with ErrClosed,
// already-admitted transactions are applied and resolved, then the
// applier exits.
func (fd *FrontDoor) Close() {
	if fd.closed.Swap(true) {
		return
	}
	fd.q.close()
	fd.wg.Wait()
}

// StatsNow snapshots the counters.
func (fd *FrontDoor) StatsNow() Stats {
	hits, misses, stale, evicted, size := fd.cache.statsNow()
	return Stats{
		Depth:        fd.Depth(),
		Offered:      fd.met.offered.Load(),
		Shed:         fd.met.shed.Load(),
		Rejected:     fd.met.rejected.Load(),
		Applied:      fd.met.applied.Load(),
		Succeeded:    fd.met.succeeded.Load(),
		Batches:      fd.met.batches.Load(),
		PlannedAhead: fd.met.plannedAhead.Load(),
		Conflicts:    fd.met.conflicts.Load(),
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheStale:   stale,
		CacheEvicted: evicted,
		CacheSize:    size,
		Epoch:        fd.cache.currentEpoch(),
	}
}
