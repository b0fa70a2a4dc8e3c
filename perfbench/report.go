package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the user-visible metrics every workload reports with
// tracing off. The names are roles that every workload fills (NOTES.md
// maps each role to the issue-level metric it stands for on each
// workload): a run's headline capacity, the median and tail time to one
// result, and the tail latency of the reads served beside the work.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"capacity_per_s", "1/s"},
	{"result_p50_ms", "ms"},
	{"result_tail_ms", "ms"},
	{"side_tail_ms", "ms"},
}

// perLayer lists the per-layer metrics of the traced run. A layer a
// workload leaves idle reports 0 there.
var perLayer = []metricSpec{
	{"ledgerstore.scan_payments_per_s", "1/s"},
	{"ledgerstore.scan_to_backfill_ratio", "ratio"},
	{"serve.backfill_call_s", "s"},
	{"serve.drain_s", "s"},
	{"serve.seals.fig2", "count"},
	{"serve.seals.fig3", "count"},
	{"serve.seals.eco", "count"},
	{"serve.merge_ms", "ms"},
	{"serve.ingest_pages_per_batch", "count"},
	{"serve.alloc_bytes_per_payment", "B"},
	{"netstream.deliver_ms_p99", "ms"},
	{"serve.visible_ms_p99", "ms"},
	{"serve.ingest_event_us_p99", "us"},
	{"serve.lag_events_max", "count"},
	{"netstream.gaps", "count"},
	{"netstream.missed", "count"},
	{"serve.http.validators_p99_ms", "ms"},
	{"serve.http.deanon_p99_ms", "ms"},
	{"serve.http.deanon_lookup_p99_ms", "ms"},
	{"serve.http.ecosystem_p99_ms", "ms"},
	{"txq.submit_call_us_p99", "us"},
	{"txq.depth_mean", "count"},
	{"txq.txs_per_batch", "count"},
	{"txq.replan_ratio", "ratio"},
	{"txq.shed", "count"},
	{"txq.quote_cache_hit_ratio", "ratio"},
	{"txq.quote_cache_stale", "count"},
	{"txq.quote_call_us_p50", "us"},
	{"replay.build_state_s", "s"},
	{"replay.tail_s", "s"},
	{"replay.sequential_s", "s"},
	{"replay.replan_ratio", "ratio"},
	{"replay.cold_s", "s"},
	{"payment.seal_state_ms", "ms"},
	{"deanon.sharded_observe_per_s", "1/s"},
	{"deanon.parallel_observe_per_s", "1/s"},
	{"deanon.study_observe_per_s", "1/s"},
	{"self.bench_s", "s"},
	{"self.ledgerstore_s", "s"},
	{"self.serve_s", "s"},
	{"self.netstream_s", "s"},
	{"self.txq_s", "s"},
	{"self.replay_s", "s"},
	{"self.payment_s", "s"},
	{"self.deanon_s", "s"},
	{"self.core_s", "s"},
	{"self.gen_s", "s"},
	{"trace.spans", "count"},
	{"trace.blocking_coverage", "ratio"},
	{"trace.overhead_pct", "%"},
	{"gen.lateness_max_ms", "ms"},
	{"host.steal_pct", "%"},
	{"result.samples", "count"},
	{"side.samples", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's metrics, operation counts and oracle
// verdicts.
type report struct {
	cfg       config
	dir       string
	attempted int64
	failed    int64
	problems  []string
	endToEnd  map[string]metric
	layers    map[string]metric
	notes     []string
	tr        *tracer
}

func newReport(cfg config, dir string) *report {
	return &report{
		cfg:      cfg,
		dir:      dir,
		endToEnd: make(map[string]metric),
		layers:   make(map[string]metric),
		tr:       newTracer(cfg.trace),
	}
}

// e2e records an end-to-end metric.
func (r *report) e2e(name string, v float64, unit string) { r.endToEnd[name] = metric{v, unit} }

// layer records a per-layer metric.
func (r *report) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// note adds a line to the human-readable summary on standard error.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops counts operations attempted and failed (sheds, 5xx responses,
// dropped events, oracle mismatches).
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check is an oracle: a false condition fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// verify records an oracle's verdict: a non-nil error fails the run.
func (r *report) verify(what string, err error) {
	r.check(err == nil, "%s: %v", what, err)
}

// onSchedule fails the run when its load generator fell further behind
// than latenessShare of the latency limit: such a run measured the
// generator, not the program.
func (r *report) onSchedule(what string, late lateness, limit time.Duration) {
	r.check(late.p99() <= latenessShare*ms(limit),
		"%s generator ran %.1fms late at p99 (max %.1fms), over %.0f%% of the %v limit",
		what, late.p99(), late.max(), 100*latenessShare, limit)
}

// finishTrace derives the span-based per-layer metrics and writes the
// spans out.
func (r *report) finishTrace(path string) error {
	agg := r.tr.aggregate()
	for layer, self := range agg.selfByLayer {
		r.layer("self."+layer+"_s", self.Seconds(), "s")
	}
	r.layer("trace.spans", float64(agg.spans), "count")
	r.layer("trace.blocking_coverage", agg.coverage, "ratio")
	if wall := r.tr.wall(); wall > 0 {
		r.layer("trace.overhead_pct", 100*float64(agg.spans)*spanCost().Seconds()/wall.Seconds(), "%")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultJSON renders the result line: the end-to-end metrics untraced,
// the per-layer metrics traced. A missing, zero or non-finite
// end-to-end metric is a failed run.
func (r *report) resultJSON() ([]byte, error) {
	out := make(map[string]metric)
	if r.cfg.trace {
		for _, m := range perLayer {
			v, ok := r.layers[m.name]
			if !ok {
				v = metric{0, m.unit}
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				v.Value = 0
			}
			out[m.name] = v
		}
	} else {
		for _, m := range endToEnd {
			v, ok := r.endToEnd[m.name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				r.check(false, "end-to-end metric %s missing or not positive (%v)", m.name, v.Value)
				v = metric{0, m.unit}
			}
			out[m.name] = v
		}
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, attempted, r.failed, out})
}

// printSummary writes the human-readable account of the run.
func (r *report) printSummary(w io.Writer) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	table := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "  %s:\n", title)
		for _, n := range names {
			fmt.Fprintf(w, "    %-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	if len(r.endToEnd) > 0 {
		table("end-to-end", r.endToEnd)
	}
	if len(r.layers) > 0 {
		table("per-layer", r.layers)
	}
	fmt.Fprintf(w, "  operations: attempted=%d failed=%d\n", r.attempted, r.failed)
	if len(r.problems) > 0 {
		fmt.Fprintf(w, "  ORACLE FAILURES:\n    %s\n", strings.Join(r.problems, "\n    "))
	}
}
