package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lvf2/internal/core"
	"lvf2/internal/liberty"
)

// testLibText builds a small deterministic LVF² library: INV (arc A→ZN)
// and NAND2 (arcs A→ZN, B→ZN) over a 2x2 slew/load grid, each point a
// genuinely bimodal mixture so every model kind has something to fit.
func testLibText(t testing.TB, name string) []byte {
	t.Helper()
	return libText(t, name, 0, []float64{0.01, 0.05}, []float64{0.002, 0.008})
}

// libText is the parameterized builder behind testLibText: filler extra
// single-input cells and an arbitrary slew/load grid let benchmarks use a
// realistically sized library while unit tests stay tiny.
func libText(t testing.TB, name string, filler int, slews, loads []float64) []byte {
	t.Helper()
	lib := liberty.NewLibrary(liberty.LibraryHeaderOptions{Name: name}, "tpl", slews, loads)

	addArc := func(timing *liberty.Group) {
		mk := func(base float64) ([][]float64, [][]core.Model) {
			nom := make([][]float64, len(slews))
			mods := make([][]core.Model, len(slews))
			for i, s := range slews {
				nom[i] = make([]float64, len(loads))
				mods[i] = make([]core.Model, len(loads))
				for j, l := range loads {
					n := base + s + 10*l
					nom[i][j] = n
					mods[i][j] = core.Model{
						Lambda: 0.25,
						Theta1: core.Theta{Mean: n + 0.005, Sigma: 0.004, Skew: 0.5},
						Theta2: core.Theta{Mean: n + 0.030, Sigma: 0.006, Skew: 0.2},
					}
				}
			}
			return nom, mods
		}
		nomD, modD := mk(0.05)
		liberty.TimingModelFromFits("cell_rise", slews, loads, nomD, modD).
			AppendTo(timing, "tpl", true)
		nomT, modT := mk(0.02)
		liberty.TimingModelFromFits("rise_transition", slews, loads, nomT, modT).
			AppendTo(timing, "tpl", true)
	}

	inv := liberty.AddCell(lib, "INV", []string{"A"}, 0.001, "ZN", "!A")
	addArc(liberty.AddTiming(inv, "A", "negative_unate"))
	nand := liberty.AddCell(lib, "NAND2", []string{"A", "B"}, 0.001, "ZN", "!(A&B)")
	addArc(liberty.AddTiming(nand, "A", "negative_unate"))
	addArc(liberty.AddTiming(nand, "B", "negative_unate"))
	for i := 0; i < filler; i++ {
		c := liberty.AddCell(lib, fmt.Sprintf("BUF_X%d", i+1), []string{"A"}, 0.001, "ZN", "A")
		addArc(liberty.AddTiming(c, "A", "positive_unate"))
	}
	return []byte(lib.String())
}

// newTestServer builds a server with the test library preloaded and
// startup/degradation logging silenced (chaos runs are deliberately
// noisy; the script artifact is the debugging surface, not the log).
func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{FitSamples: 600, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	if _, err := s.AddLibrary("testlib", testLibText(t, "testlib")); err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs a request against the in-process handler.
func get(t testing.TB, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec, rec.Body.Bytes()
}

func post(t testing.TB, h http.Handler, url, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
	return rec, rec.Body.Bytes()
}

func decode[T any](t testing.TB, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad JSON response: %v\n%s", err, body)
	}
	return v
}

func TestArcCDFEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec, body := get(t, h, "/v1/arc/cdf?lib=testlib&cell=INV&slew=0.02&load=0.004&n=33")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp := decode[cdfResponse](t, body)
	if resp.Model.Kind != "LVF2" {
		t.Fatalf("kind = %s, want LVF2 default", resp.Model.Kind)
	}
	if resp.Model.Theta2 == nil || resp.Model.Lambda <= 0 {
		t.Fatalf("expected a two-component model, got %+v", resp.Model)
	}
	if len(resp.Points) != 33 {
		t.Fatalf("points = %d, want 33", len(resp.Points))
	}
	for i := 1; i < len(resp.Points); i++ {
		// Owen-T quadrature leaves ~1e-17 noise in the deep tails.
		if resp.Points[i].CDF < resp.Points[i-1].CDF-1e-12 {
			t.Fatalf("CDF not monotone at point %d", i)
		}
	}
	if last := resp.Points[len(resp.Points)-1].CDF; last < 0.99 {
		t.Fatalf("CDF at μ+4σ = %g, want ≈1", last)
	}
	// Explicit points are honoured.
	rec, body = get(t, h, "/v1/arc/cdf?lib=testlib&cell=INV&points=0.01,0.2")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	if resp := decode[cdfResponse](t, body); len(resp.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(resp.Points))
	}
}

func TestArcBinningEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec, body := get(t, h, "/v1/arc/binning?lib=testlib&cell=INV&slew=0.02&load=0.004")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp := decode[binningResponse](t, body)
	if len(resp.Boundaries) != 7 || len(resp.Probabilities) != 8 {
		t.Fatalf("got %d boundaries / %d bins, want 7/8", len(resp.Boundaries), len(resp.Probabilities))
	}
	var sum float64
	for _, p := range resp.Probabilities {
		if p < 0 {
			t.Fatalf("negative bin probability %g", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("bin probabilities sum to %g, want 1", sum)
	}
	if resp.Yield3Sigma < 0.95 || resp.Yield3Sigma > 1 {
		t.Fatalf("3σ-yield = %g", resp.Yield3Sigma)
	}

	// Expected revenue prices the 8 bins.
	rec, body = get(t, h, "/v1/arc/binning?lib=testlib&cell=INV&prices=0,1,2,3,4,5,6,7")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp = decode[binningResponse](t, body)
	if resp.ExpectedRevenue == nil || *resp.ExpectedRevenue <= 0 {
		t.Fatalf("expected revenue missing: %+v", resp)
	}
	// Wrong price count is a 400.
	if rec, _ := get(t, h, "/v1/arc/binning?lib=testlib&cell=INV&prices=1,2"); rec.Code != http.StatusBadRequest {
		t.Fatalf("short prices: code = %d, want 400", rec.Code)
	}
}

// TestArcModelKinds serves every refit-capable kind through the cache.
func TestArcModelKinds(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	for _, kind := range []string{"lvf", "lvf2", "norm2", "gaussian"} {
		rec, body := get(t, h, "/v1/arc/binning?lib=testlib&cell=INV&kind="+kind)
		if rec.Code != http.StatusOK {
			t.Fatalf("kind %s: code = %d: %s", kind, rec.Code, body)
		}
		resp := decode[binningResponse](t, body)
		if resp.Mean <= 0 {
			t.Fatalf("kind %s: mean = %g", kind, resp.Mean)
		}
	}
	// Second pass must be all cache hits (no new misses).
	misses := s.Cache().ModelStats().Misses
	for _, kind := range []string{"lvf", "lvf2", "norm2", "gaussian"} {
		if rec, body := get(t, h, "/v1/arc/binning?lib=testlib&cell=INV&kind="+kind); rec.Code != 200 {
			t.Fatalf("kind %s warm: code = %d: %s", kind, rec.Code, body)
		}
	}
	if got := s.Cache().ModelStats().Misses; got != misses {
		t.Fatalf("warm pass added %d misses", got-misses)
	}
}

func TestYieldArcEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec, body := get(t, h, "/v1/yield?lib=testlib&cell=INV&slew=0.02&load=0.004")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp := decode[yieldResponse](t, body)
	y, ok := resp.Yield["LVF2"]
	if !ok {
		t.Fatalf("no LVF2 yield in %+v", resp)
	}
	if y < 0.95 || y > 1 {
		t.Fatalf("yield at default μ+3σ clock = %g", y)
	}
	// An explicit far clock yields ≈1.
	rec, body = get(t, h, "/v1/yield?lib=testlib&cell=INV&clock=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	if resp := decode[yieldResponse](t, body); resp.Yield["LVF2"] < 0.9999 {
		t.Fatalf("yield at clock 10 = %g, want ≈1", resp.Yield["LVF2"])
	}
}

func TestSSTAEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec, body := post(t, h, "/v1/ssta",
		`{"lib":"testlib","builtin":"chain","n":4,"cell":"INV","clock":1.0}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp := decode[sstaResponse](t, body)
	if resp.CriticalOutput != "out" {
		t.Fatalf("critical output = %q", resp.CriticalOutput)
	}
	if resp.Instances != 4 {
		t.Fatalf("instances = %d, want 4", resp.Instances)
	}
	a, ok := resp.Arrivals["out"]
	if !ok {
		t.Fatalf("no arrival for out: %+v", resp.Arrivals)
	}
	for _, fam := range []string{"LVF", "LVF2"} {
		d, ok := a.Families[fam]
		if !ok {
			t.Fatalf("no %s summary", fam)
		}
		if d.Mean <= a.Nominal {
			t.Fatalf("%s mean %g not above nominal %g (positive mean shift expected)", fam, d.Mean, a.Nominal)
		}
		if d.Q9987 <= d.Mean {
			t.Fatalf("%s q99.87 %g below mean %g", fam, d.Q9987, d.Mean)
		}
	}
	// 4 instances + the primary input = 5 path steps.
	if len(resp.CriticalPath) != 5 {
		t.Fatalf("critical path has %d steps, want 5", len(resp.CriticalPath))
	}
	if resp.Yield["LVF2"] < 0.99 {
		t.Fatalf("yield at slack clock = %g, want ≈1", resp.Yield["LVF2"])
	}

	// The rca16 builtin exercises the NAND2 arcs.
	rec, body = post(t, h, "/v1/ssta", `{"lib":"testlib","builtin":"rca16"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("rca16: code = %d: %s", rec.Code, body)
	}
	if resp := decode[sstaResponse](t, body); resp.CriticalOutput != "cout" {
		t.Fatalf("rca16 critical output = %q", resp.CriticalOutput)
	}
}

func TestSSTAUploadedNetlist(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	verilog := `module two_inv(in, out);
  input in; output out; wire w;
  INV u0 (.A(in), .ZN(w));
  INV u1 (.A(w), .ZN(out));
endmodule`
	reqBody, _ := json.Marshal(map[string]any{"lib": "testlib", "netlist": verilog})
	rec, body := post(t, h, "/v1/ssta", string(reqBody))
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp := decode[sstaResponse](t, body)
	if resp.Module != "two_inv" || resp.Instances != 2 {
		t.Fatalf("module %q instances %d", resp.Module, resp.Instances)
	}
}

func TestNetlistYieldEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	rec, body := post(t, h, "/v1/yield",
		`{"lib":"testlib","builtin":"chain","n":3,"cell":"INV","clock":2.0,"families":["lvf2"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	resp := decode[yieldResponse](t, body)
	if resp.Yield["LVF2"] < 0.9999 {
		t.Fatalf("yield = %g, want ≈1 at slack clock", resp.Yield["LVF2"])
	}
	// Missing clock is a 400.
	if rec, _ := post(t, h, "/v1/yield", `{"lib":"testlib","builtin":"chain"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing clock: code = %d, want 400", rec.Code)
	}
}

// TestBuiltinNetlistBound: a builtin one step past maxBuiltinInstances
// is a 400 that names the limit on both netlist endpoints, and the
// largest admitted builtins decode to at most that many instances.
func TestBuiltinNetlistBound(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	depth := 1 // the shallowest buffer tree past the bound
	for 1<<(depth+1)-2 <= maxBuiltinInstances {
		depth++
	}
	limit := fmt.Sprintf("limit of %d instances", maxBuiltinInstances)
	for _, ep := range []string{"/v1/ssta", "/v1/yield"} {
		for _, body := range []string{
			fmt.Sprintf(`{"lib":"testlib","builtin":"chain","n":%d,"clock":1}`, maxBuiltinInstances+1),
			fmt.Sprintf(`{"lib":"testlib","builtin":"buftree","n":%d,"clock":1}`, depth),
		} {
			if rec, resp := post(t, h, ep, body); rec.Code != http.StatusBadRequest || !strings.Contains(string(resp), limit) {
				t.Errorf("%s %s = %d %s, want a 400 naming the limit", ep, body, rec.Code, resp)
			}
		}
	}
	for body, want := range map[string]int{
		fmt.Sprintf(`{"lib":"testlib","builtin":"chain","n":%d}`, maxBuiltinInstances): maxBuiltinInstances,
		fmt.Sprintf(`{"lib":"testlib","builtin":"buftree","n":%d}`, depth-1):           1<<depth - 2,
	} {
		_, mod, _, err := s.decodeNetlistRequest(httptest.NewRequest(http.MethodPost, "/v1/ssta", strings.NewReader(body)))
		if err != nil || len(mod.Instances) != want {
			t.Errorf("%s: err %v, want %d instances", body, err, want)
		}
	}
}

func TestLibraryUploadAndHashReference(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	text := testLibText(t, "uploaded")
	rec, body := post(t, h, "/v1/libraries", string(text))
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d: %s", rec.Code, body)
	}
	info := decode[libraryInfo](t, body)
	if info.Name != "uploaded" || info.Cells != 2 || len(info.Hash) != 64 {
		t.Fatalf("upload info = %+v", info)
	}
	// Query by content hash and by name both work.
	for _, ref := range []string{info.Hash, "uploaded"} {
		rec, body := get(t, h, "/v1/arc/cdf?lib="+ref+"&cell=NAND2&from=B")
		if rec.Code != http.StatusOK {
			t.Fatalf("ref %q: code = %d: %s", ref, rec.Code, body)
		}
	}
	// Listing shows both libraries.
	rec, body = get(t, h, "/v1/libraries")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: code = %d", rec.Code)
	}
	var list struct {
		Libraries []libraryInfo `json:"libraries"`
	}
	list = decode[struct {
		Libraries []libraryInfo `json:"libraries"`
	}](t, body)
	if len(list.Libraries) != 2 {
		t.Fatalf("listed %d libraries, want 2", len(list.Libraries))
	}
}

func TestErrorResponses(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/arc/cdf?cell=INV", http.StatusBadRequest},                       // missing lib
		{"/v1/arc/cdf?lib=testlib", http.StatusBadRequest},                    // missing cell
		{"/v1/arc/cdf?lib=nope&cell=INV", http.StatusNotFound},                // unknown library
		{"/v1/arc/cdf?lib=testlib&cell=XOR9", http.StatusNotFound},            // unknown cell
		{"/v1/arc/cdf?lib=testlib&cell=INV&from=Z", http.StatusNotFound},      // unknown arc
		{"/v1/arc/cdf?lib=testlib&cell=INV&kind=zipf", http.StatusBadRequest}, // unknown kind
		{"/v1/arc/cdf?lib=testlib&cell=INV&base=cell_fall", http.StatusNotFound},
		{"/v1/arc/cdf?lib=testlib&cell=INV&slew=x", http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec, body := get(t, h, tc.url)
		if rec.Code != tc.code {
			t.Errorf("%s: code = %d, want %d (%s)", tc.url, rec.Code, tc.code, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON: %s", tc.url, body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, body)
	}
}

// TestMetricsExposition checks the acceptance-criteria series: requests,
// latency, in-flight and cache hit/miss/eviction.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	get(t, h, "/v1/arc/binning?lib=testlib&cell=INV") // miss
	get(t, h, "/v1/arc/binning?lib=testlib&cell=INV") // hit
	get(t, h, "/v1/arc/cdf?lib=nope&cell=INV")        // 404

	rec, body := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: code = %d", rec.Code)
	}
	out := string(body)
	for _, want := range []string{
		`lvf2d_requests_total{route="/v1/arc/binning",code="200"} 2`,
		`lvf2d_requests_total{route="/v1/arc/cdf",code="404"} 1`,
		"lvf2d_in_flight_requests 0",
		"lvf2d_request_seconds_v1_arc_binning_count 2",
		"lvf2d_cache_model_hits 1",
		"lvf2d_cache_model_misses 1",
		"lvf2d_cache_model_evictions 0",
		"lvf2d_cache_library_misses 1",
		"lvf2d_cache_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestGracefulDrain proves the SIGTERM contract: after cancellation the
// daemon stops accepting new connections but the in-flight request runs
// to completion with a full response.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.testDelay = 300 * time.Millisecond })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- s.RunListener(ctx, ln, 5*time.Second) }()

	url := fmt.Sprintf("http://%s/v1/arc/binning?lib=testlib&cell=INV", ln.Addr())
	type result struct {
		code int
		body []byte
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resCh <- result{code: resp.StatusCode, body: b, err: err}
	}()

	// Wait until the request is being served, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for s.metrics.InFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request code = %d during drain: %s", res.code, res.body)
	}
	var br binningResponse
	if err := json.Unmarshal(res.body, &br); err != nil {
		t.Fatalf("drained response truncated: %v\n%s", err, res.body)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("RunListener returned %v after drain, want nil", err)
	}
	// New connections must now be refused.
	if _, err := http.Get(url); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
