package obs

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// HTTPMetrics bundles the standard request-level series of one HTTP
// service: a request counter by (route, code), a latency histogram by
// route, and an in-flight gauge.
type HTTPMetrics struct {
	Requests *CounterVec
	Latency  *histVec
	InFlight *Gauge
	Timeouts *Counter
	Rejected *Counter
	Panics   *Counter
}

// histVec is a small per-route histogram family. Wrap registers routes,
// and a handler tree may be assembled per request (the distributed
// coordinator's Handler is), so the map is guarded.
type histVec struct {
	reg     *Registry
	name    string
	help    string
	mu      sync.Mutex
	byRoute map[string]*Histogram
}

func (hv *histVec) route(route string) *Histogram {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	if h, ok := hv.byRoute[route]; ok {
		return h
	}
	h := NewHistogram(hv.reg, hv.name+"_"+sanitize(route), hv.help+" ("+route+")", nil)
	hv.byRoute[route] = h
	return h
}

// sanitize maps a route path to a metric-name-safe suffix.
func sanitize(route string) string {
	out := make([]byte, 0, len(route))
	for i := 0; i < len(route); i++ {
		c := route[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			if len(out) > 0 && out[len(out)-1] != '_' {
				out = append(out, '_')
			}
		}
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	return string(out)
}

// NewHTTPMetrics registers the request series under the given prefix
// (e.g. "lvf2d").
func NewHTTPMetrics(r *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		Requests: NewCounterVec(r, prefix+"_requests_total",
			"HTTP requests by route and status code", "route", "code"),
		Latency: &histVec{reg: r, name: prefix + "_request_seconds",
			help: "request latency in seconds", byRoute: map[string]*Histogram{}},
		InFlight: NewGauge(r, prefix+"_in_flight_requests",
			"requests currently being served"),
		Timeouts: NewCounter(r, prefix+"_request_timeouts_total",
			"requests whose per-request deadline expired"),
		Rejected: NewCounter(r, prefix+"_requests_rejected_total",
			"requests rejected by the concurrency limiter"),
		Panics: NewCounter(r, prefix+"_handler_panics_total",
			"handler panics recovered into 500 responses"),
	}
}

// statusRecorder captures the response code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.code == 0 {
		sr.code = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// Wrap instruments a handler with the request counter, latency histogram
// and in-flight gauge for the given route label. Register each route once.
func (m *HTTPMetrics) Wrap(route string, h http.Handler) http.Handler {
	lat := m.Latency.route(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.InFlight.Inc()
		defer m.InFlight.Dec()
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(sr, r)
		if sr.code == 0 {
			sr.code = http.StatusOK
		}
		lat.Observe(time.Since(start).Seconds())
		m.Requests.Inc(route, strconv.Itoa(sr.code))
	})
}

// Limit bounds handler concurrency with a semaphore. A request that
// cannot acquire a slot before its context is done is answered 503 with
// a Retry-After hint and counted in rejected (nil-safe). Overload is a
// transient condition, so well-behaved clients should back off and
// retry rather than treat it as a hard failure.
func Limit(n int, rejected *Counter, h http.Handler) http.Handler {
	if n <= 0 {
		return h
	}
	sem := make(chan struct{}, n)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
			h.ServeHTTP(w, r)
		case <-r.Context().Done():
			if rejected != nil {
				rejected.Inc()
			}
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded", http.StatusServiceUnavailable)
		}
	})
}

// Recover converts a handler panic into a clean 500 (when nothing has
// been written yet) and counts it (nil-safe), so one poisoned request
// cannot take down the connection-serving goroutine or, under direct
// ServeHTTP harnesses like the chaos suite, the whole process.
func Recover(panics *Counter, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				if panics != nil {
					panics.Inc()
				}
				http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// Timeout applies a per-request deadline via the request context. The
// handler is responsible for honouring ctx cancellation; when it returns
// after the deadline with nothing written, the client sees 503 from the
// handler's own error path. The timeouts counter (nil-safe) records
// requests whose deadline expired.
func Timeout(d time.Duration, timeouts *Counter, h http.Handler) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
		if ctx.Err() == context.DeadlineExceeded && timeouts != nil {
			timeouts.Inc()
		}
	})
}
