package serve

import (
	"ripplestudy/internal/deanon"
)

// fingerprintState is the mutable Figure 3 / Table I view: the
// fingerprint count tables for the paper's ten resolution tuples,
// maintained incrementally by a deanon.ShardedIncStudy — one
// single-writer count shard per pipeline worker (rounded up to a power
// of two), routed by fingerprint high bits — so both the
// information-gain rows and individual sender-uniqueness lookups stay
// O(1) at any point of the stream while increments scale with cores.
//
// The fingerprints themselves are computed upstream, once per payment,
// by the projection front door (project.go) through the study's shared
// plan; apply only routes them. Sealing is epoch-consistent
// scatter-gather: the study flushes and barriers every shard that
// changed, then clones only those shards' tables, so Lookup and the
// Figure 3 rows are bit-identical to a single-writer (1-shard) pass
// over the same pages.
type fingerprintState struct {
	study *deanon.ShardedIncStudy
	// feeders are the per-pipeline-worker intakes at workers>1: each
	// apply worker batches observations through its own feeder, so a
	// count shard receives one coalesced batch per flush instead of
	// contended per-record handoffs. nil at workers==1 (the study's
	// single-producer path, including its inline 1-shard fast path).
	feeders []*deanon.Feeder
	rows    int
	// lastSealPayments is the study size the previous seal covered;
	// sealDue compares against it. Written only by the sealing
	// goroutine (the view worker at workers==1, the sealer otherwise).
	lastSealPayments int
}

// newFingerprintState builds the view for the pipeline's worker count:
// deanon.ShardBitsFor(workers) count shards and, at workers>1, one
// feeder per apply worker.
func newFingerprintState(workers int) *fingerprintState {
	study := deanon.NewShardedIncStudy(deanon.Figure3Rows, deanon.ShardBitsFor(workers))
	f := &fingerprintState{study: study, rows: len(deanon.Figure3Rows)}
	if workers > 1 {
		f.feeders = make([]*deanon.Feeder, workers)
		for i := range f.feeders {
			f.feeders[i] = study.Feeder()
		}
	}
	return f
}

// plan exposes the study's compiled fingerprint plan for the projection
// front door.
func (f *fingerprintState) plan() *deanon.FingerprintPlan { return f.study.Plan() }

// shards reports the count-shard fan-out, for metrics.
func (f *fingerprintState) shards() int { return f.study.Shards() }

// apply folds one projected page in: the record's fingerprint slab
// holds rows fingerprints per payment, already in the study's row
// order.
func (f *fingerprintState) apply(rec *pageRecord) {
	for off := 0; off < len(rec.fps); off += f.rows {
		f.study.ObserveFingerprints(rec.fps[off : off+f.rows])
	}
}

// applyShard is apply for the multi-worker pipeline: observations route
// through the calling worker's own feeder, which only that worker (and
// the sealer, under barrier) touches.
func (f *fingerprintState) applyShard(shard int, rec *pageRecord) {
	if f.feeders == nil {
		f.apply(rec)
		return
	}
	fd := f.feeders[shard]
	for off := 0; off < len(rec.fps); off += f.rows {
		fd.ObserveFingerprints(rec.fps[off : off+f.rows])
	}
}

// sealDue is the view's batch-boundary publish-cost gate: a seal clones
// every dirty count shard, which under uniform fingerprint traffic is
// the entire table — O(distinct fingerprints), not O(batch). Requiring
// the study to double since the previous seal spaces publishes
// geometrically, so total copy-on-publish traffic stays linear in
// ingest (≤2× the final table) while a firehose backfill still surfaces
// mid-stream epochs. Inbox-dry seals bypass this gate, so any pause in
// the stream — including every Drain — still publishes immediately and
// idle epochs stay fresh.
func (f *fingerprintState) sealDue() bool {
	return f.study.Payments() >= 2*f.lastSealPayments
}

// snapshot seals the study as an immutable FingerprintSnapshot.
// Copy-on-publish touches only the shards that changed since the last
// seal; unchanged shards share their previous clones. At workers>1 this
// runs with every apply worker paused (seal barrier) or stopped
// (shutdown), so the study's own barrier may flush their feeders.
func (f *fingerprintState) snapshot(epoch, appliedSeq uint64) *FingerprintSnapshot {
	snap := f.study.Seal()
	f.lastSealPayments = snap.Payments()
	return &FingerprintSnapshot{
		Epoch:      epoch,
		AppliedSeq: appliedSeq,
		Payments:   snap.Payments(),
		Rows:       snap.Results(),
		study:      snap,
	}
}

// close stops the study's shard workers. Snapshots stay valid.
func (f *fingerprintState) close() { f.study.Close() }

// FingerprintSnapshot is one sealed epoch of the de-anonymization view.
type FingerprintSnapshot struct {
	// Epoch identifies the publish this snapshot came from.
	Epoch uint64 `json:"epoch"`
	// AppliedSeq is the highest ledger sequence folded in.
	AppliedSeq uint64 `json:"applied_seq"`
	// Payments is the number of observable payments fingerprinted.
	Payments int `json:"payments"`
	// Rows holds the Figure 3 information-gain rows.
	Rows []deanon.RowResult `json:"rows"`

	// study is the sealed shard snapshot answering lookups; read-only.
	study *deanon.IncSnapshot
}

// Lookup reports how many payments in this snapshot share the
// observation's fingerprint at Figure 3 resolution row — 0 never seen,
// 1 unique (the sender is de-anonymized), 2 ambiguous (≥2). O(1).
func (s *FingerprintSnapshot) Lookup(row int, f deanon.Features) (count uint8, ok bool) {
	if row < 0 || row >= len(s.Rows) {
		return 0, false
	}
	return s.study.Lookup(row, f), true
}

// Resolutions returns the snapshot's resolution rows.
func (s *FingerprintSnapshot) Resolutions() []deanon.Resolution {
	return s.study.Resolutions()
}

// CountBytes reports the sealed tables' resident footprint.
func (s *FingerprintSnapshot) CountBytes() int { return s.study.CountBytes() }
