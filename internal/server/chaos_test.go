package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lvf2/internal/chaostest"
	"lvf2/internal/faultinject"
	"lvf2/internal/mc"
)

// TestChaosServing is the crash-safety chaos suite. Each seed expands
// deterministically into a fault
// script — a sequence of traffic bursts, fit outages, clock jumps,
// snapshot saves, snapshot corruptions and kill-and-restart events —
// replayed against a server whose filesystem and fit path are both
// fault-injected. The invariants checked on every single response:
//
//   - no panic escapes a handler (the process survives; the recovered
//     panic counter stays at zero),
//   - every response is a 200 that decodes to finite numbers (possibly
//     explicitly degraded, with body tag and header agreeing) or a
//     clean 503 — never a 500, never a torn body,
//   - a restart never serves stale-checksum snapshot data: a corrupted
//     snapshot boots cold and counts a restore failure.
func TestChaosServing(t *testing.T) {
	chaostest.Suite{Base: 1000, Stride: 7, Count: 3}.Run(t, runChaosScript)
}

func runChaosScript(t *testing.T, run *chaostest.Record) {
	rng := mc.NewRNG(run.Seed)
	mfs := faultinject.NewMemFS()
	ffs := faultinject.NewFaultFS(mfs, faultinject.DiskFaults{
		PWriteErr:    0.10,
		PShortWrite:  0.10,
		PSyncErr:     0.05,
		PRenameErr:   0.05,
		PReadErr:     0.10,
		PCorruptRead: 0.10,
	}, rng.Uint64())
	ff := faultinject.NewFitFault(0, 0, rng.Uint64())
	clk := faultinject.NewClock(time.Time{})
	const snap = "state/models.lvf2snap"

	var servers []*Server
	mkServer := func() *Server {
		s := newTestServer(t, func(c *Config) {
			c.FitSamples = 300
			c.SnapshotPath = snap
			c.FS = ffs
			c.fitFault = ff.Inject
			c.now = clk.Now
			c.Breaker = BreakerOptions{FailureThreshold: 2, OpenBase: time.Second, JitterSeed: rng.Uint64()}
		})
		servers = append(servers, s)
		return s
	}
	s := mkServer()
	s.Bootstrap()
	h := s.Handler()

	cells := []string{"INV", "NAND2"}
	kinds := []string{"lvf", "lvf2", "norm2", "gaussian", "ln", "lsn"}
	slews := []float64{0.01, 0.02, 0.05}
	loads := []float64{0.002, 0.004, 0.008}
	endpoints := []string{"/v1/arc/cdf", "/v1/arc/binning", "/v1/yield"}
	randomURL := func() string {
		url := fmt.Sprintf("%s?lib=testlib&cell=%s&kind=%s&slew=%g&load=%g",
			endpoints[rng.Intn(len(endpoints))], cells[rng.Intn(len(cells))],
			kinds[rng.Intn(len(kinds))], slews[rng.Intn(len(slews))], loads[rng.Intn(len(loads))])
		if rng.Float64() < 0.3 {
			url += "&base=rise_transition"
		}
		return url
	}

	corrupted := false // snapshot on disk is known-damaged
	for step := 0; step < 30; step++ {
		switch p := rng.Float64(); {
		case p < 0.60: // concurrent traffic burst
			urls := make([]string, 4)
			for i := range urls {
				urls[i] = randomURL()
			}
			run.Step("query", urls)
			recs := burst(urls, func(int) http.Handler { return h })
			for i, rec := range recs {
				checkChaosResponse(t, urls[i], rec)
			}
		case p < 0.70: // fit outage toggles
			prob := 0.0
			if rng.Float64() < 0.6 {
				prob = 1.0
			}
			ff.SetFailProb(prob)
			run.Step("set_fit_fail_prob", prob)
		case p < 0.80: // breaker clock jump
			d := time.Duration(200+rng.Intn(3000)) * time.Millisecond
			clk.Advance(d)
			run.Step("advance_clock", d)
		case p < 0.88: // periodic snapshot tick (may hit disk faults)
			err := s.SaveSnapshot()
			note := "ok"
			if err != nil {
				note = err.Error()
			} else {
				corrupted = false
			}
			run.Step("save_snapshot", note)
		case p < 0.94: // corrupt whatever snapshot is on disk
			if b, err := mfs.ReadFile(snap); err == nil && len(b) > 0 {
				b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8))
				mfs.WriteFile(snap, b)
				corrupted = true
				run.Step("corrupt_snapshot")
			}
		default: // kill -9 and restart
			run.Step("kill_and_restart")
			s = mkServer()
			s.Bootstrap()
			h = s.Handler()
			if corrupted && s.snapRestores.Value() > 0 {
				t.Fatalf("step %d: restart restored a snapshot with a bad checksum", step)
			}
			if corrupted {
				if st := s.cache.ModelStats(); st.Entries != 0 {
					t.Fatalf("step %d: %d cache entries served from damaged snapshot", step, st.Entries)
				}
				corrupted = false // restore path never rewrites; next save refreshes it
			}
		}
		if t.Failed() {
			return
		}
	}

	// Deterministic epilogue (the acceptance sequence): a total fit
	// outage must yield only explicitly-degraded 200s until the breaker
	// opens, and once the faults stop the breaker must probe, close, and
	// hand back full-fidelity answers.
	run.Step("epilogue_outage_recovery")
	ff.SetFailProb(1)
	bk := breakerKey{libHash: s.byName["testlib"].hash, cell: "INV"}
	for i := 0; i < 6; i++ {
		// Unique grid points force cold refits (cache hits would mask the outage).
		url := fmt.Sprintf("/v1/arc/binning?lib=testlib&cell=INV&kind=norm2&slew=%g", 0.0131+float64(i)*1e-4)
		rec, body := get(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("epilogue outage query %d: code = %d (want 200 degraded, never 5xx): %s", i, rec.Code, body)
		}
		if rec.Header().Get("X-LVF2-Degraded") == "" {
			t.Fatalf("epilogue outage query %d: missing degraded tag: %s", i, body)
		}
	}
	if st := s.breakers.stateOf(bk); st != breakerOpen {
		t.Fatalf("breaker state after total outage = %v, want open", st)
	}
	ff.SetFailProb(0)
	clk.Advance(90 * time.Second) // clears any jittered backoff (OpenMax 30s default)
	rec, body := get(t, h, "/v1/arc/binning?lib=testlib&cell=INV&kind=norm2&slew=0.0199")
	if rec.Code != http.StatusOK || rec.Header().Get("X-LVF2-Degraded") != "" {
		t.Fatalf("post-outage probe = %d degraded=%q, want full-fidelity 200: %s",
			rec.Code, rec.Header().Get("X-LVF2-Degraded"), body)
	}
	if st := s.breakers.stateOf(bk); st != breakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", st)
	}

	// The process survived the whole script and no handler ever panicked.
	for i, srv := range servers {
		if n := srv.metrics.Panics.Value(); n != 0 {
			t.Errorf("server %d recovered %d handler panics, want 0", i, n)
		}
	}
}

// burst sends GET urls[i] to via(i), all at once, and returns the
// responses in order.
func burst(urls []string, via func(i int) http.Handler) []*httptest.ResponseRecorder {
	recs := make([]*httptest.ResponseRecorder, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			via(i).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			recs[i] = rec
		}()
	}
	wg.Wait()
	return recs
}

// checkChaosResponse enforces the per-response chaos invariant.
func checkChaosResponse(t *testing.T, url string, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK:
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Errorf("GET %s: 200 with undecodable body: %v\n%s", url, err, rec.Body.Bytes())
			return
		}
		if _, hasErr := m["error"]; hasErr {
			t.Errorf("GET %s: 200 carrying an error body: %s", url, rec.Body.Bytes())
		}
		for _, field := range []string{"mean", "std", "clock"} {
			if v, ok := m[field].(float64); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
				t.Errorf("GET %s: non-finite %s in 200 body: %v", url, field, v)
			}
		}
		hdr := rec.Header().Get("X-LVF2-Degraded")
		if deg, ok := m["degraded"].(map[string]any); ok {
			rung, _ := deg["rung"].(string)
			if rung == "" || hdr != rung {
				t.Errorf("GET %s: degraded body rung %q vs header %q", url, rung, hdr)
			}
		} else if hdr != "" {
			t.Errorf("GET %s: X-LVF2-Degraded=%q without a degraded body tag", url, hdr)
		}
	case http.StatusServiceUnavailable:
		// Clean shed/overload: allowed, body is JSON error or plain text.
	default:
		t.Errorf("GET %s: status %d (want 200 or clean 503): %s", url, rec.Code, rec.Body.Bytes())
	}
}
