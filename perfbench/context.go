package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runInfo is the context a run's numbers belong to.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	// SourceDigest hashes the Go sources the benchmark ran against, so
	// runs from a checkout without git history still identify the code.
	SourceDigest string `json:"source_digest"`
}

func runContext(cfg config) runInfo {
	return runInfo{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(cfg.root),
		SourceDigest: sourceDigest(cfg.root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTicks is the machine-wide CPU time split of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

// readCPUTicks reads the aggregate cpu line of /proc/stat (zero where
// there is none).
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor gave to other
// tenants between two readings: on a shared machine the cause of runs
// whose numbers stand apart.
func stealPct(a, b cpuTicks) (float64, bool) {
	if b.total <= a.total {
		return 0, false
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total), true
}

// commit is the checkout's git commit, or "none" when the checkout is
// not a repository (git is not asked to search the parent directories).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod files and .go sources under root, skipping
// build output.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries only weaken the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
