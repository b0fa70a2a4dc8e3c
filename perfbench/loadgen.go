package main

import (
	"sort"
	"time"
)

// latenessShare is the most the generator may run late at its 99th
// percentile, as a share of the latency limit of the stage it drives.
// A run whose generator fell further behind measured the generator,
// not the program, and is refused. The percentile, not the maximum,
// decides, so one stall of the shared machine does not refuse a run;
// the maximum is reported.
const latenessShare = 0.5

// minBursts is the fewest saturation bursts a capacity is the median
// of; more run while the workload's measured time lasts.
const minBursts = 3

// dueAt is operation i's due time on a fixed-rate schedule.
func dueAt(start time.Time, rate float64, i int) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// lateness holds how far behind schedule (send start − due time, ms)
// a generator sent each operation.
type lateness []float64

func (l lateness) max() float64 {
	m := 0.0
	for _, v := range l {
		m = max(m, v)
	}
	return m
}

func (l lateness) p99() float64 {
	if len(l) == 0 {
		return 0
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s[(len(s)*99+99)/100-1]
}

// openLoop issues n operations on a fixed-rate schedule from start:
// operation i is due at start + i/rate, whether or not earlier ones
// have completed. Each tick sends everything already due, in order,
// then sleeps until the next due time, so a slow send delays later
// operations without thinning the schedule. send receives the due time
// so latency is measured from it. openLoop returns each operation's
// lateness.
func openLoop(start time.Time, rate float64, n int, send func(i int, due time.Time)) lateness {
	late := make(lateness, 0, n)
	for i := 0; i < n; {
		now := time.Now()
		for ; i < n; i++ {
			due := dueAt(start, rate, i)
			if due.After(now) {
				break
			}
			late = append(late, ms(time.Since(due)))
			send(i, due)
		}
		if i < n {
			// The runtime's sleep overshoots by about a millisecond
			// on Linux, so above ~1000/s each tick sends a batch; the
			// wait shows as lateness and in every due-time latency.
			time.Sleep(time.Until(dueAt(start, rate, i)))
		}
	}
	return late
}
