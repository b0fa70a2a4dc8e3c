// Package replay implements the paper's Table II experiment: "We started
// from a stable snapshot ... of the Ripple network. Then, we extracted
// all payments submitted after the snapshot and successfully delivered
// ... So, we remove them [the Market Makers] and the exchange orders from
// the system and replay the extracted payments on the modified trust
// network," updating balances after each successful payment and applying
// the trust-line updates that happened on the real system.
//
// Two replay paths produce bit-identical results:
//
//   - Run applies everything sequentially — the reference semantics.
//   - RunParallel plans payments optimistically on worker goroutines
//     while a single applier commits them in ledger order, falling back
//     to sequential re-planning when a plan's read set was touched by an
//     earlier write (see the package's batch protocol below).
//
// Both consume history through a decode-ahead page stream, and both use
// the source's sequence index (RangeSource) when available, so a replay
// from a 70% snapshot reads each byte of the store once instead of
// scanning it twice.
package replay

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/shamap"
)

// Source streams ledger pages in order; ledgerstore.Store satisfies it.
type Source interface {
	Pages(fn func(*ledger.Page) error) error
}

// RangeSource is a Source that can stream only the pages whose header
// sequence falls in [lo, hi], skipping the rest without decoding them.
// ledgerstore.Store satisfies it via its segment sequence index.
type RangeSource interface {
	Source
	PagesRange(lo, hi uint64, fn func(*ledger.Page) error) error
}

// sliceSource adapts an in-memory page list (tests, freshly generated
// histories).
type sliceSource []*ledger.Page

func (s sliceSource) Pages(fn func(*ledger.Page) error) error {
	for _, p := range s {
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// PagesRange implements RangeSource; pages are in append (ledger) order.
func (s sliceSource) PagesRange(lo, hi uint64, fn func(*ledger.Page) error) error {
	for _, p := range s {
		seq := p.Header.Sequence
		if seq < lo {
			continue
		}
		if seq > hi {
			return nil
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// FromPages wraps an in-memory page list as a Source.
func FromPages(pages []*ledger.Page) Source { return sliceSource(pages) }

// errStopBuild stops a full scan once past the requested range. It must
// be matched with errors.Is: wrapped errors compared with != would leak
// past the check and abort callers that merely reached the snapshot.
var errStopBuild = errors.New("replay: snapshot reached")

// rangePages streams the pages with sequence in [lo, hi] from src,
// using PagesRange when the source supports it and an early-stopping
// full scan otherwise (history pages are in ledger order).
func rangePages(src Source, lo, hi uint64, fn func(*ledger.Page) error) error {
	if rs, ok := src.(RangeSource); ok {
		return rs.PagesRange(lo, hi, fn)
	}
	err := src.Pages(func(p *ledger.Page) error {
		seq := p.Header.Sequence
		if seq < lo {
			return nil
		}
		if seq > hi {
			return errStopBuild
		}
		return fn(p)
	})
	if errors.Is(err, errStopBuild) {
		return nil
	}
	return err
}

// pageOrErr is one element of the decode-ahead stream. release, when
// non-nil, recycles the page's decode arena; the consumer must call it
// exactly once after it is done with the page (and everything reachable
// from it — replayed tx pointers included).
type pageOrErr struct {
	page    *ledger.Page
	release func()
	err     error
}

// recycledRangeSource is the optional fast path of the decode-ahead
// stream: a source that can decode each page into a pooled arena and
// hand ownership to the consumer (ledgerstore.Store implements it).
type recycledRangeSource interface {
	PagesRangeRecycled(lo, hi uint64, fn func(p *ledger.Page, release func()) error) error
}

// streamPages decodes pages [lo, hi] on a producer goroutine, sending
// them through a buffered channel so decoding overlaps whatever the
// consumer does with each page (engine apply, planning). Sources with
// recycled-arena decoding stream through pooled arenas — the consumer
// releases each page once it has finished with it, so a steady-state
// replay reuses a bounded ring of arenas instead of heap-decoding the
// whole history. Closing stop makes the producer quit promptly; the
// channel is always closed when the producer finishes.
func streamPages(src Source, lo, hi uint64, stop <-chan struct{}) <-chan pageOrErr {
	ch := make(chan pageOrErr, 64)
	send := func(pe pageOrErr) error {
		select {
		case ch <- pe:
			return nil
		case <-stop:
			if pe.release != nil {
				pe.release()
			}
			return errStopBuild
		}
	}
	go func() {
		defer close(ch)
		var err error
		if rs, ok := src.(recycledRangeSource); ok {
			err = rs.PagesRangeRecycled(lo, hi, func(p *ledger.Page, release func()) error {
				return send(pageOrErr{page: p, release: release})
			})
		} else {
			err = rangePages(src, lo, hi, func(p *ledger.Page) error {
				return send(pageOrErr{page: p})
			})
		}
		if err != nil && !errors.Is(err, errStopBuild) {
			select {
			case ch <- pageOrErr{err: err}:
			case <-stop:
			}
		}
	}()
	return ch
}

// maxSeq is the inclusive upper bound meaning "to the end of history".
const maxSeq = ^uint64(0)

// BuildOptions configure state-tree checkpointing during a replay.
// The zero value replays cold with no checkpoint writes — but a resume
// still happens automatically when the source carries usable
// checkpoints (set DisableResume to force cold).
type BuildOptions struct {
	// CheckpointEvery persists a sealed checkpoint to the sidecar every N
	// pages applied. 0 disables checkpoint writing.
	CheckpointEvery uint64
	// DisableResume forces a cold rebuild even when checkpoints exist.
	DisableResume bool
	// CheckpointDir overrides the sidecar directory. Empty uses the
	// source's own sidecar when it has one (ledgerstore.Store does); a
	// memory source with no dir neither writes nor resumes.
	CheckpointDir string
}

// checkpointDirer is satisfied by sources with a checkpoint sidecar
// (ledgerstore.Store).
type checkpointDirer interface {
	CheckpointDir() string
}

func (o BuildOptions) dir(src Source) string {
	if o.CheckpointDir != "" {
		return o.CheckpointDir
	}
	if cd, ok := src.(checkpointDirer); ok {
		return cd.CheckpointDir()
	}
	return ""
}

// resumeFromCheckpoint restores the engine from the newest usable
// checkpoint at or before snapshotSeq. Any failure — no sidecar, no
// eligible checkpoint, damaged batches, a tree that does not decode —
// reports ok=false and the caller replays cold; a checkpoint can speed
// a replay up but never make it fail.
func resumeFromCheckpoint(dir string, snapshotSeq uint64) (eng *payment.Engine, seq uint64, ok bool) {
	metas, err := ledgerstore.ListCheckpoints(dir)
	if err != nil || len(metas) == 0 {
		return nil, 0, false
	}
	last := -1
	for i := range metas {
		if metas[i].Seq <= snapshotSeq {
			last = i
		}
	}
	if last < 0 {
		return nil, 0, false
	}
	// The tree at checkpoint N lives in the union of every batch ≤ N.
	getter, err := ledgerstore.OpenCheckpointNodes(dir, metas[:last+1])
	if err != nil {
		return nil, 0, false
	}
	cp := metas[last]
	tree, err := shamap.Load(cp.Root, getter.Get)
	if err != nil {
		return nil, 0, false
	}
	restored, err := payment.RestoreEngine(tree, payment.RestoreScalars{
		TotalDrops:    cp.TotalDrops,
		FeesDestroyed: amount.Drops(cp.FeesDestroyed),
		StateDigest:   cp.StateDigest,
	})
	if err != nil {
		return nil, 0, false
	}
	return restored, cp.Seq, true
}

// checkpointWriter seals and persists the engine's state tree every
// `every` pages.
type checkpointWriter struct {
	dir   string
	every uint64
	since uint64
}

func (cw *checkpointWriter) maybe(eng *payment.Engine, seq uint64) error {
	if cw == nil {
		return nil
	}
	cw.since++
	if cw.since < cw.every {
		return nil
	}
	cw.since = 0
	root, err := eng.SealState()
	if err != nil {
		return err
	}
	meta := &ledgerstore.CheckpointMeta{
		Seq:           seq,
		Root:          root,
		StateDigest:   eng.StateDigest(),
		TotalDrops:    eng.TotalDrops(),
		FeesDestroyed: int64(eng.FeesDestroyed()),
	}
	return ledgerstore.WriteCheckpoint(cw.dir, meta, eng.WriteNewStateNodes)
}

// BuildState replays every transaction in pages with sequence ≤
// snapshotSeq into a fresh engine, reconstructing the network state at
// the snapshot. Replaying is deterministic, so the rebuilt state matches
// the state that produced the history. When the source carries
// checkpoints, the rebuild resumes from the newest one at or before the
// snapshot instead of starting from genesis.
func BuildState(src Source, snapshotSeq uint64) (*payment.Engine, error) {
	return BuildStateOpts(src, snapshotSeq, BuildOptions{})
}

// BuildStateOpts is BuildState with explicit checkpoint options.
func BuildStateOpts(src Source, snapshotSeq uint64, opts BuildOptions) (*payment.Engine, error) {
	dir := opts.dir(src)
	var eng *payment.Engine
	from := uint64(0)
	if dir != "" && !opts.DisableResume {
		if restored, seq, ok := resumeFromCheckpoint(dir, snapshotSeq); ok {
			eng, from = restored, seq+1
		}
	}
	if eng == nil {
		eng = payment.NewEngine(payment.WithStateTree())
	}
	var cw *checkpointWriter
	if dir != "" && opts.CheckpointEvery > 0 {
		cw = &checkpointWriter{dir: dir, every: opts.CheckpointEvery}
	}
	stop := make(chan struct{})
	defer close(stop)
	for pe := range streamPages(src, from, snapshotSeq, stop) {
		if pe.err != nil {
			return nil, pe.err
		}
		seq, err := applyPage(eng, pe)
		if err != nil {
			return nil, err
		}
		if err := cw.maybe(eng, seq); err != nil {
			return nil, fmt.Errorf("replay: checkpointing at page %d: %w", seq, err)
		}
	}
	return eng, nil
}

// applyPage applies every transaction of one streamed page. The page's
// decode arena (when pooled) is recycled exactly once on every exit
// path; the engine keeps no references into the page — it reads value
// fields only.
func applyPage(eng *payment.Engine, pe pageOrErr) (seq uint64, err error) {
	if pe.release != nil {
		defer pe.release()
	}
	seq = pe.page.Header.Sequence
	for _, tx := range pe.page.Txs {
		if _, err := eng.Apply(tx); err != nil {
			return seq, fmt.Errorf("replay: rebuilding state at page %d: %w", seq, err)
		}
	}
	return seq, nil
}

// Category buckets replayed payments as the paper's Table II does.
type Category int

const (
	// CategoryCross are payments whose source and delivered currencies
	// differ (68.7% of the paper's replay set).
	CategoryCross Category = iota + 1
	// CategorySingle are same-currency IOU payments.
	CategorySingle
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryCross:
		return "Cross-currency"
	case CategorySingle:
		return "Single-currency"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Row is one line of Table II.
type Row struct {
	Category  Category
	Submitted int
	Delivered int
}

// Rate returns the delivery rate.
func (r Row) Rate() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Submitted)
}

// Stats reports how the optimistic-parallel pipeline behaved. It is
// informational: two runs with different Stats can (and must) still
// agree on every other Result field.
type Stats struct {
	// Workers is the planner goroutine count (0 for sequential Run).
	Workers int
	// Batches is the number of planning batches.
	Batches int
	// PlannedAhead counts payments committed straight from an optimistic
	// plan whose read set was untouched.
	PlannedAhead int
	// Conflicts counts payments whose optimistic plan was invalidated by
	// an earlier write in the same batch and had to be re-planned
	// sequentially.
	Conflicts int
}

// Result is the full Table II.
type Result struct {
	Cross, Single Row
	// RemovedMarketMakers is how many accounts the ablation deleted.
	RemovedMarketMakers int
	// SnapshotSeq is the page sequence the snapshot was taken at.
	SnapshotSeq uint64
	// StateDigest is the replay engine's deterministic state fingerprint
	// after the last replayed transaction — the strongest equality check
	// between two replays of the same history.
	StateDigest ledger.Hash
	// StateRoot is the sealed Merkle root of the engine's final state —
	// the authenticated complement to StateDigest: the digest pins the
	// history taken, the root commits to the state reached, and the pair
	// is pinned differentially across sequential, parallel, and
	// checkpoint-resumed replays.
	StateRoot ledger.Hash
	// Stats describes the pipeline; excluded from result equality.
	Stats Stats
}

// Total aggregates both categories.
func (r Result) Total() Row {
	return Row{
		Submitted: r.Cross.Submitted + r.Single.Submitted,
		Delivered: r.Cross.Delivered + r.Single.Delivered,
	}
}

// Run executes the Table II experiment over the history in src,
// snapshotting at snapshotSeq: it rebuilds the state, removes every
// market maker and their offers, and replays the post-snapshot IOU
// payments (direct XRP transfers don't traverse trust or books and are
// excluded, as in the paper's 1.7M-payment replay set).
func Run(src Source, snapshotSeq uint64) (*Result, error) {
	return RunOpts(src, snapshotSeq, BuildOptions{})
}

// RunOpts is Run with explicit checkpoint options for the state
// rebuild phase.
func RunOpts(src Source, snapshotSeq uint64, opts BuildOptions) (*Result, error) {
	state, removed, res, err := setupReplay(src, snapshotSeq, opts)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	defer close(stop)
	for pe := range streamPages(src, snapshotSeq+1, maxSeq, stop) {
		if pe.err != nil {
			return nil, pe.err
		}
		for i, tx := range pe.page.Txs {
			it, ok := classify(tx, pe.page.Metas[i], removed, res)
			if !ok || it.skip {
				continue
			}
			if m := replayTx(state, tx); m != nil && m.Result.Succeeded() && it.row != nil {
				it.row.Delivered++
			}
		}
		if pe.release != nil {
			pe.release()
		}
	}
	return finishResult(state, res)
}

// finishResult stamps the final digest and sealed state root.
func finishResult(state *payment.Engine, res *Result) (*Result, error) {
	res.StateDigest = state.StateDigest()
	root, err := state.SealState()
	if err != nil {
		return nil, err
	}
	res.StateRoot = root
	return res, nil
}

// setupReplay rebuilds the snapshot state and performs the market-maker
// ablation shared by Run and RunParallel.
func setupReplay(src Source, snapshotSeq uint64, opts BuildOptions) (*payment.Engine, map[addr.AccountID]bool, *Result, error) {
	state, err := BuildStateOpts(src, snapshotSeq, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	removedList := state.RemoveMarketMakers()
	removed := make(map[addr.AccountID]bool, len(removedList))
	for _, a := range removedList {
		removed[a] = true
	}
	res := &Result{RemovedMarketMakers: len(removedList), SnapshotSeq: snapshotSeq}
	return state, removed, res, nil
}

// item is one replayable post-snapshot transaction, in ledger order.
type item struct {
	tx *ledger.Tx
	// row is the Table II row the payment counts toward (nil for
	// trust-line updates).
	row *Row
	// skip marks payments that are counted as submitted but not
	// replayed (an endpoint vanished with the market makers).
	skip bool

	// Optimistic planning outputs (RunParallel only).
	planned bool
	plan    *pathfind.Plan
	reads   pathfind.ReadSet
}

// classify applies the Table II filters to one historical transaction,
// bumping the submitted counters as a side effect. ok is false for
// transactions the replay ignores entirely.
func classify(tx *ledger.Tx, meta *ledger.TxMeta, removed map[addr.AccountID]bool, res *Result) (item, bool) {
	switch tx.Type {
	case ledger.TxTrustSet:
		// "We also reflected in the modified trust network the updates
		// happening on the real system to trust-lines."
		if removed[tx.Account] || removed[tx.LimitPeer] {
			return item{}, false
		}
		return item{tx: tx}, true
	case ledger.TxPayment:
		if !meta.Result.Succeeded() {
			return item{}, false // the paper replays successfully delivered payments
		}
		if tx.IsDirectXRP() {
			return item{}, false
		}
		row := &res.Single
		if meta.CrossCurrency {
			row = &res.Cross
		}
		row.Submitted++
		if removed[tx.Account] || removed[tx.Destination] {
			return item{skip: true}, true // its endpoint vanished with the makers
		}
		return item{tx: tx, row: row}, true
	}
	return item{}, false
}

// planBatchSize is how many replayable transactions are planned per
// optimistic batch. Within a batch the engine state is immutable (all
// planners run before the first apply), so plans validate against the
// writes of earlier items in the same batch only — dirt never
// accumulates across batches.
const planBatchSize = 256

// RunParallel is Run with optimistic parallel planning: `workers`
// goroutines run the pathfinder over the current engine state while it
// is frozen, then a single applier commits the batch in ledger order.
// Each payment's plan carries the read set the search depended on
// (accounts whose trust edges were inspected, order-book pairs quoted);
// the applier re-plans a payment sequentially when an earlier commit in
// the batch dirtied anything in its read set. Since the planner is
// deterministic, an untouched read set guarantees the optimistic plan
// is byte-for-byte the plan sequential replay would have computed — the
// differential tests pin Result (including StateDigest) bit-identical
// to Run's.
//
// workers < 1 uses GOMAXPROCS. The engine must be driven by replay only
// (payments and trust-line updates); offer placement would bypass the
// dirty tracking.
func RunParallel(src Source, snapshotSeq uint64, workers int) (*Result, error) {
	return RunParallelOpts(src, snapshotSeq, workers, BuildOptions{})
}

// RunParallelOpts is RunParallel with explicit checkpoint options for
// the state rebuild phase.
func RunParallelOpts(src Source, snapshotSeq uint64, workers int, opts BuildOptions) (*Result, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	state, removed, res, err := setupReplay(src, snapshotSeq, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Workers = workers

	// Per-worker planners share the frozen state but own their scratch.
	// They must use the engine's pathfinding defaults so a valid
	// optimistic plan is exactly what Apply would have computed.
	finders := make([]*pathfind.Finder, workers)
	for i := range finders {
		finders[i] = pathfind.New(state.Graph(), state.Books(), pathfind.WithRecording())
	}

	ap := applier{
		state:     state,
		res:       res,
		dirtyAcct: make(map[addr.AccountID]struct{}),
		dirtyPair: make(map[orderbook.Pair]struct{}),
	}

	stop := make(chan struct{})
	defer close(stop)
	batch := make([]item, 0, planBatchSize)
	// Batch items hold tx pointers into their source pages, so a page's
	// decode arena may only recycle after every batch referencing it has
	// been applied. Fully-consumed pages wait here until the next flush
	// drains the batch.
	var pending []func()
	flush := func() error {
		if len(batch) > 0 {
			planBatch(batch, finders)
			if err := ap.applyBatch(batch); err != nil {
				return err
			}
			res.Stats.Batches++
			batch = batch[:0]
		}
		for _, release := range pending {
			release()
		}
		pending = pending[:0]
		return nil
	}
	for pe := range streamPages(src, snapshotSeq+1, maxSeq, stop) {
		if pe.err != nil {
			return nil, pe.err
		}
		for i, tx := range pe.page.Txs {
			it, ok := classify(tx, pe.page.Metas[i], removed, res)
			if !ok {
				continue
			}
			batch = append(batch, it)
			if len(batch) >= planBatchSize {
				// Mid-page flush: this page is still being iterated, so its
				// release (queued below, after the loop) is not in pending yet
				// and its remaining txs stay valid.
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
		if pe.release != nil {
			pending = append(pending, pe.release)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return finishResult(state, res)
}

// planBatch runs the pathfinder for every replayable payment in the
// batch across the worker finders. The engine state is read-only for
// the duration: planning mutates nothing but each finder's own scratch.
func planBatch(batch []item, finders []*pathfind.Finder) {
	idx := make(chan int, len(batch))
	for i := range batch {
		it := &batch[i]
		if it.tx == nil || it.tx.Type != ledger.TxPayment || it.skip {
			continue
		}
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for _, f := range finders {
		wg.Add(1)
		go func(f *pathfind.Finder) {
			defer wg.Done()
			for i := range idx {
				it := &batch[i]
				tx := it.tx
				srcCur := tx.Amount.Currency
				if !tx.SendMax.IsZero() {
					srcCur = tx.SendMax.Currency
				}
				// Plan even when it comes back nil (no path): the failed
				// search's read set still certifies the PathDry outcome.
				plan, err := f.FindPayment(tx.Account, tx.Destination, srcCur, tx.Amount)
				if err != nil {
					plan = nil
				}
				it.plan = plan
				it.reads.Reset()
				f.AppendReadSet(&it.reads)
				it.planned = true
			}
		}(f)
	}
	wg.Wait()
}

// applier commits batches in ledger order, tracking which state each
// commit dirtied so later optimistic plans in the batch can be
// validated.
type applier struct {
	state     *payment.Engine
	res       *Result
	dirtyAcct map[addr.AccountID]struct{}
	dirtyPair map[orderbook.Pair]struct{}
}

func (ap *applier) applyBatch(batch []item) error {
	clear(ap.dirtyAcct)
	clear(ap.dirtyPair)
	for i := range batch {
		it := &batch[i]
		if it.skip {
			continue
		}
		tx := it.tx
		if tx.Type == ledger.TxTrustSet {
			replayTx(ap.state, tx)
			ap.dirtyAcct[tx.Account] = struct{}{}
			ap.dirtyAcct[tx.LimitPeer] = struct{}{}
			continue
		}
		var meta *ledger.TxMeta
		if it.planned && ap.clean(&it.reads) {
			meta = replayTxPlanned(ap.state, tx, it.plan)
			ap.res.Stats.PlannedAhead++
		} else {
			// The plan (or its PathDry verdict) may be stale: re-plan
			// against live state, exactly as sequential replay would.
			if it.planned {
				ap.res.Stats.Conflicts++
			}
			meta = replayTx(ap.state, tx)
		}
		if meta != nil && meta.Result.Succeeded() {
			if it.row != nil {
				it.row.Delivered++
			}
			ap.markExecuted()
		}
	}
	return nil
}

// clean reports whether nothing in the read set has been dirtied by an
// earlier commit in this batch.
func (ap *applier) clean(rs *pathfind.ReadSet) bool {
	if len(ap.dirtyAcct) > 0 {
		for _, a := range rs.Accounts {
			if _, dirty := ap.dirtyAcct[a]; dirty {
				return false
			}
		}
	}
	if len(ap.dirtyPair) > 0 {
		for _, p := range rs.Pairs {
			if _, dirty := ap.dirtyPair[p]; dirty {
				return false
			}
		}
	}
	return true
}

// markExecuted records the state the just-committed payment mutated:
// every trust-flow endpoint and every quoted book pair. XRP balances,
// fees, and sequence numbers are not tracked because the planner never
// reads them (the applier re-checks them live on every commit).
func (ap *applier) markExecuted() {
	plan := ap.state.ExecutedPlan()
	if plan == nil {
		return
	}
	for _, fl := range plan.TrustFlows {
		ap.dirtyAcct[fl.From] = struct{}{}
		ap.dirtyAcct[fl.To] = struct{}{}
	}
	for _, q := range plan.Quotes {
		ap.dirtyPair[q.Pair] = struct{}{}
	}
}

// replayTx re-submits a historical transaction against the (diverged)
// replay state: the sequence number is rewritten to the replay engine's
// expectation. Signatures are not re-checked (they cover the original
// sequence); the engine does not verify them during Apply.
func replayTx(eng *payment.Engine, tx *ledger.Tx) *ledger.TxMeta {
	clone := *tx
	clone.Sequence = eng.NextSequence(tx.Account)
	meta, err := eng.Apply(&clone)
	if err != nil {
		return nil
	}
	return meta
}

// replayTxPlanned is replayTx committing a pre-computed path plan.
func replayTxPlanned(eng *payment.Engine, tx *ledger.Tx, plan *pathfind.Plan) *ledger.TxMeta {
	clone := *tx
	clone.Sequence = eng.NextSequence(tx.Account)
	meta, err := eng.ApplyPlanned(&clone, plan)
	if err != nil {
		return nil
	}
	return meta
}
