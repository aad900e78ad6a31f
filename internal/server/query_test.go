package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// TestMalformedParamsRejected sends every malformed parameter, each
// numeric one as NaN and ±Inf, to every arc endpoint on a table kind and
// on refit kinds. Each is a 400 before any model is built: a NaN slew
// that reached table interpolation on a refit goroutine would panic
// outside obs.Recover and take the test process down.
func TestMalformedParamsRejected(t *testing.T) {
	s := newTestServer(t, nil)
	s.Bootstrap()
	h := s.Handler()
	for _, kind := range []string{"lvf2", "norm2", "gaussian"} {
		for _, p := range malformedArcParams() {
			u := p[0] + "?" + p[1] + "&lib=testlib&cell=INV&kind=" + kind
			rec, body := get(t, h, u)
			if rec.Code != http.StatusBadRequest || !strings.Contains(string(body), `"error"`) {
				t.Errorf("%s = %d, want a 400 error body: %s", u, rec.Code, body)
			}
		}
	}
	if n := s.cache.ModelStats().Misses; n != 0 {
		t.Fatalf("malformed queries ran %d model builds, want 0", n)
	}
}

// TestFitPanicDegrades: a fit that panics on its own goroutine is a fit
// error — the breaker counts it and the ladder answers — not a crash.
func TestFitPanicDegrades(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.fitFault = func(context.Context) error { panic("injected fit panic") }
		c.Breaker = BreakerOptions{FailureThreshold: 1}
	})
	s.Bootstrap()
	rec, body := get(t, s.Handler(), "/v1/arc/binning?lib=testlib&cell=INV&kind=norm2")
	if rec.Code != http.StatusOK || rec.Header().Get(degradedHeader) != "LVF" {
		t.Fatalf("panicking fit: code %d %s=%q, want a degraded 200 on LVF: %s",
			rec.Code, degradedHeader, rec.Header().Get(degradedHeader), body)
	}
	resp := decode[binningResponse](t, body)
	if resp.Degraded == nil || resp.Degraded.Rung != "LVF" || !strings.Contains(resp.Degraded.Reason, "panic") {
		t.Fatalf("degraded tag = %+v, want the LVF rung with the panic as reason", resp.Degraded)
	}
	bk := breakerKey{libHash: s.byName["testlib"].hash, cell: "INV"}
	if st := s.breakers.stateOf(bk); st != breakerOpen {
		t.Fatalf("fit breaker after one panic at threshold 1 = %v, want open", st)
	}
}

// FuzzArcQuery drives the one parse step of every arc endpoint with raw
// query strings: it never panics, refuses only with a 400, and every
// number it accepts is finite and in range.
func FuzzArcQuery(f *testing.F) {
	for _, p := range malformedArcParams() {
		f.Add(p[1] + "&lib=testlib&cell=INV")
	}
	for _, u := range replGridURLs() {
		_, q, _ := strings.Cut(u, "?")
		f.Add(q)
	}
	f.Add("lib=testlib&cell=INV&points=0.01,0.2&prices=0,1,2,3,4,5,6,7")
	f.Add("lib=testlib&cell=INV&sigma=4&estimator=mnis&ci=0.05")
	f.Add("lib=testlib&cell=INV&clock=1e308&n=4096&slew=-0x1p-1074")
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/", RawQuery: raw}}
		for _, ep := range []arcEndpoint{arcCDF, arcBinning, arcYield} {
			ar, err := parseArcRequest(r, ep)
			if err != nil {
				var he *httpError
				if !errors.As(err, &he) || he.code != http.StatusBadRequest {
					t.Fatalf("endpoint %d: %q refused with %v, want a 400", ep, raw, err)
				}
				continue
			}
			nums := []float64{ar.slew, ar.load, ar.yield.sigma, ar.yield.clock, ar.yield.ci}
			nums = append(append(nums, ar.points...), ar.prices...)
			for _, v := range nums {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("endpoint %d: %q accepted non-finite %v", ep, raw, v)
				}
			}
			if ar.n < 2 || ar.n > 4096 || (ar.prices != nil && len(ar.prices) != sigmaBins) {
				t.Fatalf("endpoint %d: %q accepted n=%d, %d prices", ep, raw, ar.n, len(ar.prices))
			}
		}
	})
}

// FuzzNetlistRequest drives the decode step shared by POST /v1/ssta and
// POST /v1/yield with raw JSON bodies: it never panics, refuses only with
// a 4xx, and never builds a builtin over maxBuiltinInstances.
func FuzzNetlistRequest(f *testing.F) {
	for _, body := range []string{
		`{"lib":"testlib","builtin":"chain","n":8,"cell":"INV"}`,
		`{"lib":"testlib","builtin":"rca16"}`,
		`{"lib":"testlib","builtin":"buftree","n":11}`,
		`{"lib":"testlib","builtin":"buftree","n":12}`,
		`{"lib":"testlib","builtin":"chain","n":4097,"clock":1}`,
		`{"lib":"testlib","builtin":"chain","n":-3,"slew":-1}`,
		`{"lib":"testlib","netlist":"module m(a, y); input a; output y; INV u0 (.A(a), .ZN(y)); endmodule"}`,
		`{"lib":"other","builtin":"chain"}`,
		`{"builtin":"buftree"}`,
		`{"lib":"testlib","builtin":"ring"}`,
		`[1,2`,
	} {
		f.Add(body)
	}
	s := newTestServer(f, nil)
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/ssta", strings.NewReader(body))
		req, mod, lib, err := s.decodeNetlistRequest(r)
		if err != nil {
			var he *httpError
			if !errors.As(err, &he) || he.code < 400 || he.code > 499 {
				t.Fatalf("%q refused with %v, want a 4xx", body, err)
			}
			return
		}
		if mod == nil || lib == nil {
			t.Fatalf("%q accepted without a module and a library", body)
		}
		if req.Netlist == "" && len(mod.Instances) > maxBuiltinInstances {
			t.Fatalf("%q built a %d-instance builtin", body, len(mod.Instances))
		}
	})
}
