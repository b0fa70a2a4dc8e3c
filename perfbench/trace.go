package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Name is "<layer>.<operation>"; Parent is the
// enclosing span's ID (0 for a root); Req identifies the request the
// span served (a close sequence, a transaction id, a job number).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and returns span ID 0.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// window is the measured phase's wall time, for the overhead share.
	window time.Duration
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if !t.on {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if !t.on || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (for
// asynchronous stages such as delivery or visibility).
func (t *tracer) add(name string, parent int32, req uint64, start, end time.Time) int32 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// measured notes the wall time of the measured phase.
func (t *tracer) measured(d time.Duration) { t.window += d }

func (t *tracer) wall() time.Duration { return t.window }

// traceAgg is the span summary of one run.
type traceAgg struct {
	spans       int
	selfByLayer map[string]time.Duration
	// coverage is the share of the root spans' time that their
	// descendants account for: 1 − Σ root self time / Σ root duration.
	coverage float64
}

// aggregate computes self times per layer and the blocking-path
// coverage. Root spans are the benchmark's own request or job spans;
// their self time is reported under the "bench" layer.
func (t *tracer) aggregate() traceAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	agg := traceAgg{spans: len(t.spans), selfByLayer: make(map[string]time.Duration)}
	var rootSelf, rootDur time.Duration
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		layer := "bench"
		if s.Parent != 0 {
			layer, _, _ = strings.Cut(s.Name, ".")
		} else {
			rootSelf += self[i]
			rootDur += time.Duration(s.End - s.Start)
		}
		agg.selfByLayer[layer] += self[i]
	}
	if rootDur > 0 {
		agg.coverage = 1 - float64(rootSelf)/float64(rootDur)
	}
	return agg
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once;
// child time outside the parent's interval is ignored). Unfinished
// spans get zero.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, k := range kids {
			lo, hi := max(k.lo, s.Start), min(k.hi, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanCost measures what recording one span costs (begin + end on an
// enabled tracer), the basis of the reported tracing overhead.
func spanCost() time.Duration {
	const n = 200_000
	t := newTracer(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench.cost", 0, uint64(i)))
	}
	return time.Since(start) / n
}
