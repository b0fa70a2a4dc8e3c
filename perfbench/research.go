package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"ripplestudy/internal/core"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/replay"
)

// researchPayments sizes the research history: one Table II replay is
// a few hundred milliseconds, so a run holds enough job cycles for a
// stable median.
const researchPayments = 15_000

// researchInputs is one on-disk store with its checkpoint sidecar.
type researchInputs struct {
	*history
	coldDigest ledger.Hash
}

// genResearch generates the store and writes its checkpoint sidecar
// with a cold state build to the tip.
func genResearch(dir string, seed int64) (*researchInputs, error) {
	h, err := genHistory(dir, researchPayments, seed)
	if err != nil {
		return nil, err
	}
	every := uint64(h.res.Stats.Pages / 8)
	eng, err := replay.BuildStateOpts(h.store, h.res.LastSeq, replay.BuildOptions{CheckpointEvery: max(every, 1), DisableResume: true})
	if err != nil {
		h.release()
		return nil, err
	}
	return &researchInputs{history: h, coldDigest: eng.StateDigest()}, nil
}

// runResearch measures the paper's batch jobs over one store: Table II,
// a checkpoint resume to the tip, and Figure 3, in repeated cycles.
func runResearch(cfg config, rep *report) error {
	in, err := timeSetup(rep, func(i int) (*researchInputs, error) {
		return genResearch(filepath.Join(rep.dir, fmt.Sprintf("store-%d", i)), cfg.seed)
	}, func(in *researchInputs) { in.release() })
	if err != nil {
		return err
	}
	defer in.store.Close()
	ds, err := core.OpenDataset(in.dir)
	if err != nil {
		return err
	}

	// Figure 3 oracle: the sequential deanon.Study over the same
	// payments.
	feats, err := observeFeatures(in.store)
	if err != nil {
		return err
	}
	oracle := deanon.NewStudy(deanon.Figure3Rows)
	for _, f := range feats {
		oracle.Observe(f)
	}
	wantRows := oracle.Results()
	last := in.res.LastSeq

	tr := rep.tr
	ctx := context.Background()
	var table2MS, resumeMS, fig3Rates []float64
	var lastTable *replay.Result
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for job := uint64(1); time.Now().Before(deadline); job++ {
		root := tr.begin("bench.research_cycle", 0, job)

		sp := tr.begin("core.table2", root, job)
		t := time.Now()
		tab, err := ds.TableII(0.7)
		d := time.Since(t)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("Table II: %w", err)
		}
		table2MS = append(table2MS, ms(d))
		rep.check(tab.Total().Submitted > 0, "job %d: Table II replayed nothing", job)
		lastTable = tab

		sp = tr.begin("replay.resume", root, job)
		t = time.Now()
		eng, err := replay.BuildStateOpts(in.store, last, replay.BuildOptions{})
		d = time.Since(t)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		resumeMS = append(resumeMS, ms(d))

		sp = tr.begin("core.fig3", root, job)
		t = time.Now()
		rows, err := ds.Figure3Parallel(ctx, 0)
		d = time.Since(t)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("Figure 3: %w", err)
		}
		fig3Rates = append(fig3Rates, float64(len(feats))/d.Seconds())
		rep.verify(fmt.Sprintf("research job %d", job), researchOracle(eng.StateDigest(), in.coldDigest, tab.Cross.Delivered, rows, wantRows))
		tr.end(root)
	}
	tr.measured(time.Since(start))
	rep.e2e("peak_heap_mb", heap.peakMB(), "MB")

	table2 := summarize(table2MS)
	resume := summarize(resumeMS)
	rep.e2e("capacity_per_s", median(fig3Rates), "1/s")
	rep.e2e("result_p50_ms", table2.p50, "ms")
	rep.e2e("result_tail_ms", table2.tail, "ms")
	rep.e2e("side_tail_ms", resume.tail, "ms")
	rep.layer("result.samples", float64(table2.n), "count")
	rep.layer("side.samples", float64(resume.n), "count")
	rep.ops(int64(3*table2.n), 0)
	rep.note("research: %d cycles over %d payments: table2_s=%.3f resume_s=%.3f (tail p%.0f %.3f) fig3_payments_per_s=%.0f",
		table2.n, len(feats), table2.p50/1000, resume.p50/1000, resume.tailPct, resume.tail/1000, median(fig3Rates))

	if cfg.trace {
		if err := researchLayers(rep, in, feats, last, table2.p50/1000, lastTable); err != nil {
			return err
		}
	}
	return nil
}

// researchLayers times the layer calls behind the three jobs: the
// replay stages, the cold build, the state seal, and the three
// fingerprint-count engines on the same pre-extracted features.
func researchLayers(rep *report, in *researchInputs, feats []deanon.Features, last uint64, table2S float64, tab *replay.Result) error {
	tr := rep.tr
	timed := func(name string, fn func() error) (time.Duration, error) {
		root := tr.begin("bench.layer_probe", 0, 0)
		sp := tr.begin(name, root, 0)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		tr.end(sp)
		tr.end(root)
		return d, err
	}
	snap := uint64(float64(last) * 0.7)

	d, err := timed("replay.build_state", func() error {
		_, err := replay.BuildState(in.store, snap)
		return err
	})
	if err != nil {
		return err
	}
	rep.layer("replay.build_state_s", d.Seconds(), "s")
	rep.layer("replay.tail_s", max(table2S-d.Seconds(), 0), "s")
	if planned := tab.Stats.PlannedAhead + tab.Stats.Conflicts; planned > 0 {
		rep.layer("replay.replan_ratio", float64(tab.Stats.Conflicts)/float64(planned), "ratio")
	}

	var seq *replay.Result
	d, err = timed("replay.sequential", func() error {
		seq, err = replay.Run(in.store, snap)
		return err
	})
	if err != nil {
		return err
	}
	rep.layer("replay.sequential_s", d.Seconds(), "s")
	rep.check(seq.StateDigest == tab.StateDigest, "sequential replay digest differs from the parallel Table II")

	var cold *payment.Engine
	d, err = timed("replay.cold", func() error {
		cold, err = replay.BuildStateOpts(in.store, last, replay.BuildOptions{DisableResume: true})
		return err
	})
	if err != nil {
		return err
	}
	rep.layer("replay.cold_s", d.Seconds(), "s")
	rep.check(cold.StateDigest() == in.coldDigest, "cold rebuild digest differs from the set-up build")

	eng, err := replay.BuildStateOpts(in.store, last, replay.BuildOptions{})
	if err != nil {
		return err
	}
	if eng.HasStateTree() {
		d, err = timed("payment.seal_state", func() error {
			_, err := eng.SealState()
			return err
		})
		if err != nil && !errors.Is(err, payment.ErrNoStateTree) {
			return err
		}
		rep.layer("payment.seal_state_ms", ms(d), "ms")
	}

	rate := func(d time.Duration) float64 { return float64(len(feats)) / d.Seconds() }
	var want []deanon.RowResult
	d, _ = timed("deanon.study_observe", func() error {
		st := deanon.NewStudy(deanon.Figure3Rows)
		for _, f := range feats {
			st.Observe(f)
		}
		want = st.Results()
		return nil
	})
	rep.layer("deanon.study_observe_per_s", rate(d), "1/s")

	workers := runtime.GOMAXPROCS(0)
	shardBits := 0
	for 1<<shardBits < workers {
		shardBits++
	}
	var par []deanon.RowResult
	d, _ = timed("deanon.parallel_observe", func() error {
		ps := deanon.NewParallelStudy(deanon.Figure3Rows, shardBits)
		defer ps.Close()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			fd := ps.Feeder()
			wg.Add(1)
			go func(w int, fd *deanon.Feeder) {
				defer wg.Done()
				for j := w; j < len(feats); j += workers {
					fd.Observe(feats[j])
				}
			}(w, fd)
		}
		wg.Wait()
		par = ps.Results()
		return nil
	})
	rep.layer("deanon.parallel_observe_per_s", rate(d), "1/s")
	rep.check(reflect.DeepEqual(par, want), "ParallelStudy rows differ from Study")

	var sharded []deanon.RowResult
	d, _ = timed("deanon.sharded_observe", func() error {
		ss := deanon.NewShardedIncStudy(deanon.Figure3Rows, shardBits)
		defer ss.Close()
		for _, f := range feats {
			ss.Observe(f)
		}
		sharded = ss.Seal().Results()
		return nil
	})
	rep.layer("deanon.sharded_observe_per_s", rate(d), "1/s")
	rep.check(reflect.DeepEqual(sharded, want), "ShardedIncStudy rows differ from Study")
	return nil
}

// observeFeatures extracts every observable payment's features, once,
// for the Figure 3 oracle and the deanon engine probes.
func observeFeatures(st *ledgerstore.Store) ([]deanon.Features, error) {
	var feats []deanon.Features
	err := st.Pages(func(p *ledger.Page) error {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				feats = append(feats, f)
			}
		}
		return nil
	})
	return feats, err
}
