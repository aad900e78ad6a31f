package obs

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounter(r, "test_total", "a counter")
	g := NewGauge(r, "test_level", "a gauge")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	g.Set(3)
	g.Dec()

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_total counter", "test_total 5",
		"# TYPE test_level gauge", "test_level 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := NewCounter(r, "same_total", "")
	b := NewCounter(r, "same_total", "")
	if a != b {
		t.Fatal("re-registration returned a new counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type re-registration did not panic")
		}
	}()
	NewGauge(r, "same_total", "")
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "lat_seconds", "", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		"lat_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "conc_seconds", "", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); got < 7.999 || got > 8.001 {
		t.Fatalf("sum = %g, want 8", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := NewCounterVec(r, "req_total", "", "route", "code")
	cv.Inc("/v1/a", "200")
	cv.Inc("/v1/a", "200")
	cv.Inc("/v1/a", "500")
	if got := cv.Value("/v1/a", "200"); got != 2 {
		t.Fatalf("value = %d, want 2", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `req_total{route="/v1/a",code="200"} 2`) {
		t.Errorf("missing labelled sample:\n%s", out)
	}
	if !strings.Contains(out, `req_total{route="/v1/a",code="500"} 1`) {
		t.Errorf("missing labelled sample:\n%s", out)
	}
}

func TestHTTPWrapRecordsMetrics(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "svc")
	h := m.Wrap("/v1/x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.InFlight.Value() != 1 {
			t.Errorf("in-flight = %d inside handler, want 1", m.InFlight.Value())
		}
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("code = %d", rec.Code)
	}
	if got := m.Requests.Value("/v1/x", "418"); got != 1 {
		t.Fatalf("request counter = %d, want 1", got)
	}
	if m.InFlight.Value() != 0 {
		t.Fatalf("in-flight = %d after handler, want 0", m.InFlight.Value())
	}
	if m.Latency.route("/v1/x").Count() != 1 {
		t.Fatalf("latency observations = %d, want 1", m.Latency.route("/v1/x").Count())
	}
}

// TestHTTPWrapConcurrent: handler trees assembled per request (as the
// distributed coordinator's Handler is) call Wrap while other requests
// are served; run under -race -count=10.
func TestHTTPWrapConcurrent(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "conc")
	routes := []string{"/v1/a", "/v1/b", "/v1/c"}
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				route := routes[(g+i)%len(routes)]
				h := m.Wrap(route, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, route, nil))
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, route := range routes {
		total += m.Latency.route(route).Count()
	}
	if total != goroutines*perG {
		t.Fatalf("latency observations = %d, want %d", total, goroutines*perG)
	}
}

func TestLimitRejectsWhenSaturated(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "lim")
	block := make(chan struct{})
	entered := make(chan struct{})
	h := Limit(1, m.Rejected, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	}))

	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	}()
	<-entered

	// Second request with an already-cancelled context must be rejected.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	// Overload is transient: the 503 must carry a Retry-After hint so
	// well-behaved clients back off instead of hammering.
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if m.Rejected.Value() != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected.Value())
	}
	close(block)
}

func TestRecoverConvertsPanicTo500(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "rec")
	h := Recover(m.Panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("poisoned request")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil)) // must not propagate
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if m.Panics.Value() != 1 {
		t.Fatalf("panics = %d, want 1", m.Panics.Value())
	}
	// Healthy handlers pass through untouched.
	ok := Recover(m.Panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	rec = httptest.NewRecorder()
	ok.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusNoContent || m.Panics.Value() != 1 {
		t.Fatalf("healthy passthrough: code = %d panics = %d", rec.Code, m.Panics.Value())
	}
}

func TestTimeoutSetsDeadline(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r, "to")
	h := Timeout(time.Millisecond, m.Timeouts, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		http.Error(w, r.Context().Err().Error(), http.StatusServiceUnavailable)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	if m.Timeouts.Value() != 1 {
		t.Fatalf("timeouts = %d, want 1", m.Timeouts.Value())
	}
}
