package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/txq"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// TestSummarizeTailRule pins the percentile/sample-count rule: the tail
// is the highest order statistic with tailBeyond samples above it, per
// window, and never below the median.
func TestSummarizeTailRule(t *testing.T) {
	// One window of 200: the 11th largest value (190) has exactly ten
	// samples beyond it, so the tail stands for p95.
	s := summarize(seq(200))
	if s.n != 200 || s.p50 != 100.5 || s.tail != 190 || s.tailPct != 95 {
		t.Fatalf("n=200: got %+v, want p50 100.5, tail 190 at p95", s)
	}
	// Too few samples for ten to lie beyond anything above the median:
	// the tail falls back to the median.
	s = summarize(seq(15))
	if s.tail != s.p50 || s.p50 != 8 || s.tailPct != 50 {
		t.Fatalf("n=15: got %+v, want tail = median = 8", s)
	}
	if s := summarize(nil); s.n != 0 || s.tail != 0 {
		t.Fatalf("empty: got %+v", s)
	}
	// Two windows of 250: a huge outlier in the first shifts its tail
	// by one rank (241) and leaves the second's (490) alone; the tail is
	// their median, not the outlier.
	xs := seq(500)
	xs[10] = 1e9
	s = summarize(xs)
	if want := (241.0 + 490.0) / 2; s.tail != want || s.tailPct != 96 {
		t.Fatalf("two windows: tail %v at p%v, want %v at p96", s.tail, s.tailPct, want)
	}
}

// TestOpenLoopDueTimeAccounting checks that the generator hands every
// operation its scheduled due time, never sends early, keeps the
// schedule after a stall (later operations are sent late, not thinned),
// and reports the stall as lateness.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const rate, n = 1000.0, 40
	start := time.Now().Add(time.Millisecond)
	var dues []time.Time
	var lat []time.Duration
	late := openLoop(start, rate, n, func(i int, due time.Time) {
		now := time.Now()
		if now.Before(due) {
			t.Errorf("op %d sent %v before its due time", i, due.Sub(now))
		}
		dues = append(dues, due)
		if i == 0 {
			time.Sleep(20 * time.Millisecond) // a stalled send
		}
		lat = append(lat, time.Since(due))
	})
	if len(dues) != n {
		t.Fatalf("sent %d of %d operations", len(dues), n)
	}
	for i, d := range dues {
		if !d.Equal(dueAt(start, rate, i)) {
			t.Fatalf("op %d due %v, want %v", i, d, dueAt(start, rate, i))
		}
	}
	// Op 1 was due 1ms after op 0 but could only go after the 20ms
	// stall: its latency from due time includes the wait.
	if lat[1] < 15*time.Millisecond {
		t.Fatalf("op 1 latency %v does not include the stall", lat[1])
	}
	if len(late) != n || late.max() < 15 {
		t.Fatalf("lateness %v, want one entry per operation and a max ≥15ms after a 20ms stall", late)
	}
}

// TestSelfTimes pins the span self-time arithmetic: overlapping
// children count once, child time outside the parent is ignored, and
// the blocking-path coverage is 1 − root self / root duration.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "serve.b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "txq.c", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "deanon.d", Start: 25, End: 35},
		{ID: 6, Name: "bench.open", Start: 5, End: -1},
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 20, 20, 30, 10, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Fatalf("span %d self %v, want %v (all %v)", spans[i].ID, self[i], want[i], self)
		}
	}
	tr := &tracer{spans: spans}
	agg := tr.aggregate()
	if agg.spans != 6 || agg.coverage != 0.5 {
		t.Fatalf("aggregate: %d spans coverage %v, want 6 and 0.5", agg.spans, agg.coverage)
	}
	if agg.selfByLayer["serve"] != 40 || agg.selfByLayer["bench"] != 50 || agg.selfByLayer["deanon"] != 10 {
		t.Fatalf("self by layer: %v", agg.selfByLayer)
	}
}

// TestTracerOff checks a disabled tracer records nothing.
func TestTracerOff(t *testing.T) {
	tr := newTracer(false)
	id := tr.begin("serve.x", 0, 1)
	tr.end(id)
	tr.add("serve.y", id, 1, time.Now(), time.Now())
	if id != 0 || len(tr.spans) != 0 {
		t.Fatalf("disabled tracer recorded spans: id %d, %d spans", id, len(tr.spans))
	}
}

func rows(ig float64) []deanon.RowResult {
	return []deanon.RowResult{{Unique: 3, IG: ig}, {Unique: 1, IG: ig / 2}}
}

// TestOraclesTrip feeds each oracle a correct result and deliberately
// wrong ones.
func TestOraclesTrip(t *testing.T) {
	if err := backfillOracle(10, 10, rows(0.5), rows(0.5)); err != nil {
		t.Fatalf("backfill: correct result rejected: %v", err)
	}
	for name, err := range map[string]error{
		"payment count": backfillOracle(9, 10, rows(0.5), rows(0.5)),
		"figure 3 rows": backfillOracle(10, 10, rows(0.5), rows(0.25)),
	} {
		if err == nil {
			t.Errorf("backfill oracle accepted a wrong %s", name)
		}
	}

	want := monitor.Report{Period: "p", Rounds: 3, Validators: []monitor.ValidatorStats{{Label: "a", Valid: 3}}}
	got := want
	if err := liveOracle(got, want, 0, 0); err != nil {
		t.Fatalf("live: correct result rejected: %v", err)
	}
	wrong := want
	wrong.Validators = []monitor.ValidatorStats{{Label: "a", Valid: 2}}
	short := want
	short.Rounds = 2
	for name, err := range map[string]error{
		"tally":   liveOracle(wrong, want, 0, 0),
		"rounds":  liveOracle(short, want, 0, 0),
		"dropped": liveOracle(got, want, 1, 0),
		"missed":  liveOracle(got, want, 0, 2),
	} {
		if err == nil {
			t.Errorf("live oracle accepted a wrong %s", name)
		}
	}

	st := txq.Stats{Offered: 10, Applied: 7, Shed: 2, Rejected: 1}
	h := ledger.Hash{1}
	if err := submitOracle(st, 7, 7, h, h); err != nil {
		t.Fatalf("submit: correct result rejected: %v", err)
	}
	lost := st
	lost.Applied = 6
	for name, err := range map[string]error{
		"books":   submitOracle(lost, 7, 7, h, h),
		"tickets": submitOracle(st, 6, 7, h, h),
		"digest":  submitOracle(st, 7, 7, h, ledger.Hash{2}),
	} {
		if err == nil {
			t.Errorf("submit oracle accepted a wrong %s", name)
		}
	}

	if err := researchOracle(h, h, 0, rows(0.5), rows(0.5)); err != nil {
		t.Fatalf("research: correct result rejected: %v", err)
	}
	for name, err := range map[string]error{
		"resume digest": researchOracle(h, ledger.Hash{2}, 0, rows(0.5), rows(0.5)),
		"cross":         researchOracle(h, h, 1, rows(0.5), rows(0.5)),
		"figure 3":      researchOracle(h, h, 0, rows(0.5), rows(0.1)),
	} {
		if err == nil {
			t.Errorf("research oracle accepted a wrong %s", name)
		}
	}
}

// TestFailedOracleFailsRun checks that a tripped oracle reaches the
// result line: correct false, the failure counted.
func TestFailedOracleFailsRun(t *testing.T) {
	rep := newReport(config{workload: "backfill"}, t.TempDir())
	for _, m := range endToEnd {
		rep.e2e(m.name, 1.5, m.unit)
	}
	rep.ops(100, 0)
	rep.check(backfillOracle(9, 10, nil, nil) == nil, "wrong count")
	var res struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metric
	}
	line, err := rep.resultJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 101 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %s: want correct=false failed=1 attempted=101 and every end-to-end metric", line)
	}
}

// TestMissingMetricFailsRun checks that an end-to-end metric that was
// never measured (or measured as zero) fails the run.
func TestMissingMetricFailsRun(t *testing.T) {
	rep := newReport(config{workload: "live"}, t.TempDir())
	rep.e2e("setup_s", 1, "s")
	line, err := rep.resultJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"correct":false`) {
		t.Fatalf("result %s: a run missing metrics must not be correct", line)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables here and
// the benchmark definition at the repository root in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string }         `json:"per_layer"`
		Work     []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, names, units []string) {
		if len(specs) != len(names) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(specs), len(names))
		}
		for i, m := range specs {
			if m.name != names[i] || m.unit != units[i] {
				t.Errorf("%s[%d]: %s/%s here, %s/%s in BENCHMARK.json", kind, i, m.name, m.unit, names[i], units[i])
			}
		}
	}
	var n, u []string
	for _, m := range def.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range def.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
	for _, w := range def.Work {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(def.Work) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d implemented", len(def.Work), len(workloads))
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm("# HELP x y\nserve_view_seals_total{view=\"fig2_tally\"} 7\nserve_x 1.5\nbad\n")
	if m[`serve_view_seals_total{view="fig2_tally"}`] != 7 || m["serve_x"] != 1.5 || len(m) != 2 {
		t.Fatalf("parsed %v", m)
	}
}

// TestSteadyRate checks the drain-rate arithmetic behind the
// capacities: the ramp is skipped and the rest gives the rate.
func TestSteadyRate(t *testing.T) {
	t0 := time.Now()
	var done []time.Time
	for i := 0; i < 10; i++ { // ramp: 10 completions at 10ms spacing
		done = append(done, t0.Add(time.Duration(i)*10*time.Millisecond))
	}
	ramp := done[len(done)-1]
	for i := 1; i <= 100; i++ { // then one completion per ms
		done = append(done, ramp.Add(time.Duration(i)*time.Millisecond))
	}
	if r := steadyRate(done, 9); math.Abs(r-1000) > 1e-6 {
		t.Fatalf("rate after the ramp %v, want 1000/s", r)
	}
	if r := steadyRate(done[:1], 0); r != 0 {
		t.Fatalf("rate of a single completion %v, want 0", r)
	}
}
