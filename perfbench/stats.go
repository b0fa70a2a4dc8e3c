package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile, so the tail never rests on a handful of outliers.
const tailBeyond = 10

// tailWindow is the sample count of one tail window. A run's tail is
// the median of its windows' tails, so one scheduler hiccup on the
// shared machine moves one window, not the reported tail.
const tailWindow = 250

// summary is a latency (or duration) distribution reduced to the
// median and a tail.
type summary struct {
	n       int
	p50     float64
	tail    float64
	tailPct float64 // the percentile each window's tail stands for, 0–100
}

// summarize reports the median and the tail: consecutive windows of
// tailWindow samples (all samples when there are fewer) each give their
// highest percentile with at least tailBeyond samples above it, and the
// tail is the median of those. With too few samples for such a
// percentile to sit above the median, the tail is the median.
func summarize(samples []float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	out := summary{n: n, p50: sortedMedian(sorted(samples)), tailPct: 50}
	out.tail = out.p50
	windows := max(n/tailWindow, 1)
	size := n / windows
	var tails []float64
	for w := 0; w < windows; w++ {
		win := sorted(samples[w*size : (w+1)*size])
		if k := len(win) - 1 - tailBeyond; k >= 0 {
			tails = append(tails, win[k])
			out.tailPct = 100 * float64(k+1) / float64(len(win))
		}
	}
	if len(tails) > 0 {
		if t := sortedMedian(sorted(tails)); t > out.p50 {
			out.tail = t
		} else {
			out.tailPct = 50
		}
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sortedMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// median of a sample set (0 when empty).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sortedMedian(sorted(samples))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapWindow is the span of one peak-heap window.
const heapWindow = 250 * time.Millisecond

// heapSampler tracks the live heap as marked by each garbage
// collection, which unlike the heap in use does not depend on where in
// its cycle the collector happened to be sampled. It keeps the peak of
// each heapWindow; the reported peak is the median of those, so one
// collection that caught a transient spike does not set it.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

// startHeapSampler samples the heap every few milliseconds until
// peakMB stops it.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
				peak = max(peak, v.Uint64())
			}
			select {
			case <-h.stop:
				if peak > 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case now := <-tick.C:
				if now.After(windowEnd) {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
					peak, windowEnd = 0, now.Add(heapWindow)
				}
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the median window peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// allocBytes reports cumulative heap allocation.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
