package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Headers the benchmark adds to traced requests so the spans of one
// request link up across the client, the replica it reached, the
// forward hop and the owner. The daemon ignores them.
const (
	reqHeader    = "X-Bench-Request"
	parentHeader = "X-Bench-Parent"
)

// loadgen is the open-loop generator of the serve and fleet workloads:
// a seeded Poisson schedule, at most one request in flight per worker,
// latency timed from each request's due time.
type loadgen struct {
	reqs    []*request
	targets []string // replica base URLs
	workers []*http.Client
	tr      *tracer
	reqIDs  atomic.Int64
	// forward outcomes seen in X-LVF2-Forward, while tracing
	forwarded, fallback atomic.Int64
}

func newLoadgen(reqs []*request, targets []string, workers int, tr *tracer) *loadgen {
	g := &loadgen{reqs: reqs, targets: targets, tr: tr}
	for i := 0; i < workers; i++ {
		// One keep-alive connection per replica per worker; a worker has
		// one request in flight, so the generator never has more than
		// `workers` requests outstanding.
		g.workers = append(g.workers, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *loadgen) close() {
	for _, c := range g.workers {
		c.CloseIdleConnections()
	}
}

// sent is one request of a step.
type sent struct {
	req     int // index into reqs
	replica int
	due     time.Time
}

// stepResult is one rate step: counts, latencies from due time and the
// generator's lateness, both in schedule order.
type stepResult struct {
	name              string
	rate              float64
	sent, ok, failed  int
	lat, late         []float64
	p50, p99, lateP99 float64
	lastLateP50       float64
	passed            bool
	sustained         float64 // answers per second from the step's start to its last answer
}

// schedule draws a step's requests: exponential gaps at the rate, the
// request and a uniformly chosen replica from the step's sampler.
func schedule(p *sampler, replicas int, rate float64, d time.Duration, start time.Time) []sent {
	var out []sent
	t := 0.0
	for {
		t += p.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		req, replica := p.next(replicas)
		out = append(out, sent{req: req, replica: replica, due: start.Add(time.Duration(t * float64(time.Second)))})
	}
}

// waitUntil sleeps to within a millisecond of t and yields the rest: the
// runtime's sub-millisecond sleeps round up to its 1 ms poll tick, which
// would otherwise count as latency.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// runStep sends one rate step and checks every answer against its
// reference body.
func (g *loadgen) runStep(name string, rate float64, d time.Duration, s *stream, seed int64, check func(*request, *http.Response, []byte) error, fail func(string, ...any)) stepResult {
	start := time.Now().Add(5 * time.Millisecond)
	plan := schedule(s.sampler(seed), len(g.targets), rate, d, start)
	res := stepResult{name: name, rate: rate, sent: len(plan),
		lat: make([]float64, len(plan)), late: make([]float64, len(plan))}
	var next atomic.Int64
	var ok, failed atomic.Int64
	var wg sync.WaitGroup
	for _, client := range g.workers {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					return
				}
				p := plan[i]
				waitUntil(p.due)
				res.late[i] = ms(time.Since(p.due))
				err := g.send(client, g.reqs[p.req], g.targets[p.replica], check)
				res.lat[i] = ms(time.Since(p.due))
				if err != nil {
					failed.Add(1)
					fail("%s step %s: %v", g.reqs[p.req].label(), name, err)
				} else {
					ok.Add(1)
				}
			}
		}(client)
	}
	wg.Wait()
	res.ok, res.failed = int(ok.Load()), int(failed.Load())
	res.sustained = float64(res.ok) / time.Since(start).Seconds()
	res.p50 = median(res.lat)
	res.p99 = windowedQ(res.lat, 1000, 0.99)
	res.lateP99 = quantile(res.late, 0.99)
	tail := res.late
	if len(tail) > 1000 {
		tail = tail[len(tail)-1000:]
	}
	res.lastLateP50 = median(tail)
	return res
}

// runClosed is the saturation step: every worker sends the step's
// sampled requests back to back for d. It returns the step with
// rate set to the throughput achieved (answered requests per second).
func (g *loadgen) runClosed(d time.Duration, s *stream, seed int64, check func(*request, *http.Response, []byte) error, fail func(string, ...any)) stepResult {
	p := s.sampler(seed)
	var sent, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	// Answers per bucket of the step: the achieved rate is the median
	// bucket's, so a burst of host noise moves one bucket, not the rate.
	const bucket = 250 * time.Millisecond
	counts := make([]atomic.Int64, int(d/bucket)+1)
	for _, client := range g.workers {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req, replica := p.next(len(g.targets))
				r := g.reqs[req]
				sent.Add(1)
				if err := g.send(client, r, g.targets[replica], check); err != nil {
					failed.Add(1)
					fail("%s step saturate: %v", r.label(), err)
				} else if i := int(time.Since(start) / bucket); i < len(counts) {
					counts[i].Add(1)
				}
			}
		}(client)
	}
	wg.Wait()
	res := stepResult{name: "saturate", sent: int(sent.Load()), failed: int(failed.Load())}
	res.ok = res.sent - res.failed
	var perBucket []float64
	for i := 0; i < int(d/bucket); i++ { // the last, partial bucket is dropped
		perBucket = append(perBucket, float64(counts[i].Load())/bucket.Seconds())
	}
	res.rate = median(perBucket)
	return res
}

// send issues one request and checks the answer.
func (g *loadgen) send(client *http.Client, r *request, base string, check func(*request, *http.Response, []byte) error) error {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	hreq, err := http.NewRequestWithContext(context.Background(), r.method, base+r.uri, body)
	if err != nil {
		return err
	}
	if r.body != "" {
		hreq.Header.Set("Content-Type", "application/json")
	}
	id, t0 := g.tr.begin()
	var reqID int64
	if id != 0 {
		reqID = g.reqIDs.Add(1)
		hreq.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
		hreq.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	g.tr.end(id, 0, reqID, "client."+r.class, base, t0)
	if err != nil {
		return err
	}
	if id != 0 {
		switch resp.Header.Get("X-LVF2-Forward") {
		case "forwarded":
			g.forwarded.Add(1)
		case "local-fallback":
			g.fallback.Add(1)
		}
	}
	return check(r, resp, b)
}

// checkStatus accepts any 200, non-degraded answer.
func checkStatus(r *request, resp *http.Response, b []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	if deg := resp.Header.Get("X-LVF2-Degraded"); deg != "" {
		return fmt.Errorf("degraded answer (rung %s)", deg)
	}
	return nil
}

// checkReference accepts only a 200, non-degraded answer whose body is
// byte-identical to the single-process reference.
func checkReference(r *request, resp *http.Response, b []byte) error {
	if err := checkStatus(r, resp, b); err != nil {
		return err
	}
	if !bytes.Equal(b, r.ref) {
		return fmt.Errorf("body differs from the reference (%d vs %d bytes)", len(b), len(r.ref))
	}
	return nil
}
