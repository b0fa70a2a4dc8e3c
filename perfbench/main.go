// Command perfbench is the repository's end-to-end benchmark: one
// driver for the read path (ledgerstore scan → projection → view apply
// → seal → snapshot → HTTP), the write path (submit → admission → plan
// → validate → apply → ticket) and the paper's batch jobs (Table II,
// checkpoint resume, Figure 3).
//
//	bash perfbench/run.sh --workload backfill --seed 1 --seconds 20 --trace 0
//
// Each workload builds its inputs from --seed, hands the program only
// those inputs, times calls into the layers' public functions from the
// outside, checks every output against an oracle, and prints one JSON
// result as the last line of standard output. With --trace 0 the
// result holds the end-to-end metrics (tracing off); with --trace 1 it
// holds the per-layer metrics from a run that records spans around
// every layer call. NOTES.md gives each workload's rationale and the
// layer → end-to-end prediction for every per-layer metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; scratch data lives under .bench_build
}

// workload runs one benchmark workload and fills the report.
type workload func(cfg config, rep *report) error

var workloads = map[string]workload{
	"backfill": runBackfill,
	"live":     runLive,
	"submit":   runSubmit,
	"research": runResearch,
}

// setupRepeats is how many times each workload builds its inputs from
// scratch; setup_s is the median, so a slow outlier set-up cannot move
// it.
const setupRepeats = 3

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: backfill|live|submit|research")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (scratch data goes to <root>/.bench_build)")
	flag.Parse()
	cfg.trace = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload backfill|live|submit|research --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := execute(cfg, run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs the workload in a private scratch directory and prints
// the result line.
func execute(cfg config, run workload) error {
	scratch := filepath.Join(cfg.root, ".bench_build", "data", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg.root, _ = filepath.Abs(cfg.root)

	ctxLine, _ := json.Marshal(runContext(cfg))
	fmt.Printf("context %s\n", ctxLine)

	rep := newReport(cfg, scratch)
	before := readCPUTicks()
	if err := run(cfg, rep); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if steal, ok := stealPct(before, readCPUTicks()); ok {
		rep.layer("host.steal_pct", steal, "%")
		rep.note("host: %.1f%% of the machine's CPU time was stolen by the hypervisor during the run", steal)
	}
	if cfg.trace {
		if err := rep.finishTrace(filepath.Join(cfg.root, ".bench_build", "trace-"+cfg.workload+".jsonl")); err != nil {
			return err
		}
	}
	rep.printSummary(os.Stderr)
	line, err := rep.resultJSON()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeSetup runs build setupRepeats times and records the median wall
// time as setup_s. Every build but the last is released.
func timeSetup[T any](rep *report, build func(i int) (T, error), release func(T)) (T, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRepeats-1 && release != nil {
			release(v)
		}
		out = v
	}
	sort.Float64s(times)
	rep.e2e("setup_s", times[len(times)/2], "s")
	return out, nil
}
