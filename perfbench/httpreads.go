package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// queryEndpoints are the read endpoints the HTTP side load rotates
// through, by their serve metrics names.
var queryEndpoints = []string{"validators", "deanon", "deanon_lookup", "ecosystem"}

// queryPlan is a seeded sequence of GET paths, one per request.
func queryPlan(rng *rand.Rand, n int) (paths []string, endpoint []int) {
	currencies := []string{"USD", "BTC", "EUR", "CNY", "XRP"}
	for i := 0; i < n; i++ {
		e := i % len(queryEndpoints)
		var p string
		switch queryEndpoints[e] {
		case "validators":
			p = "/v1/validators"
		case "deanon":
			p = "/v1/deanon"
		case "deanon_lookup":
			p = fmt.Sprintf("/v1/deanon/lookup?row=%d&amount=%d&currency=%s",
				rng.Intn(10), 1+rng.Intn(500), currencies[rng.Intn(len(currencies))])
		case "ecosystem":
			p = "/v1/ecosystem"
		}
		paths = append(paths, p)
		endpoint = append(endpoint, e)
	}
	return paths, endpoint
}

// httpFront serves whichever service handler is current on a loopback
// listener and reads it over one keep-alive connection.
type httpFront struct {
	srv    *http.Server
	base   string
	client *http.Client
	cur    atomic.Pointer[http.Handler]
	done   chan struct{}
}

func startHTTPFront() (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := f.cur.Load()
		if h == nil {
			http.Error(w, "no service", http.StatusServiceUnavailable)
			return
		}
		(*h).ServeHTTP(w, r)
	})}
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	go func() {
		defer close(f.done)
		if err := f.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Println("perfbench: http front:", err)
		}
	}()
	return f, nil
}

// set routes requests to h from now on.
func (f *httpFront) set(h http.Handler) { f.cur.Store(&h) }

// close stops the server and waits for it.
func (f *httpFront) close() {
	f.client.CloseIdleConnections()
	_ = f.srv.Shutdown(context.Background()) // nothing in flight: the reader has returned
	<-f.done
}

// readResult is the outcome of one open-loop read run.
type readResult struct {
	latency    []float64   // ms from due time to full response, all endpoints
	byEndpoint [][]float64 // per queryEndpoints index
	failed     int64       // non-200 responses and transport errors
	late       lateness
}

// readOpenLoop issues the planned GETs at a fixed rate from start over
// the single connection and times each from its due time.
func (f *httpFront) readOpenLoop(start time.Time, rate float64, paths []string, endpoint []int) readResult {
	res := readResult{byEndpoint: make([][]float64, len(queryEndpoints))}
	res.late = openLoop(start, rate, len(paths), func(i int, due time.Time) {
		resp, err := f.client.Get(f.base + paths[i])
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		if err != nil {
			res.failed++
			return
		}
		l := ms(time.Since(due))
		res.latency = append(res.latency, l)
		res.byEndpoint[endpoint[i]] = append(res.byEndpoint[endpoint[i]], l)
	})
	return res
}

// merge appends another run's reads.
func (r *readResult) merge(o readResult) {
	r.latency = append(r.latency, o.latency...)
	for i := range r.byEndpoint {
		r.byEndpoint[i] = append(r.byEndpoint[i], o.byEndpoint[i]...)
	}
	r.failed += o.failed
	r.late = append(r.late, o.late...)
}

// report records the read tail as side_tail_ms, the per-endpoint tails
// as serve.http.*, and the reads as operations.
func (r readResult) report(rep *report, limit time.Duration, what string) {
	rep.ops(int64(len(r.latency))+r.failed, r.failed)
	sum := summarize(r.latency)
	rep.e2e("side_tail_ms", sum.tail, "ms")
	rep.layer("side.samples", float64(sum.n), "count")
	for i, name := range queryEndpoints {
		rep.layer("serve.http."+name+"_p99_ms", summarize(r.byEndpoint[i]).tail, "ms")
	}
	rep.note("%s: n=%d p50=%.3fms tail(p%.1f)=%.3fms failed=%d generator max lateness=%.2fms",
		what, sum.n, sum.p50, sum.tailPct, sum.tail, r.failed, r.late.max())
	rep.onSchedule(what, r.late, limit)
}
