// Package obs is a dependency-free observability layer: counters, gauges
// and latency histograms collected in a Registry and exported in the
// Prometheus text exposition format. It exists so the serving daemon
// (cmd/lvf2d) and the long-running experiment pipelines can report
// request, latency, in-flight and cache series without pulling an
// external metrics dependency into a stdlib-only module.
//
// Registration is idempotent: asking a registry for a metric that already
// exists under the same name and type returns the existing instance, so
// packages can declare their metrics at init time and servers can be
// constructed repeatedly in tests against a shared registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is one named series (or family of labelled series).
type metric interface {
	metricName() string
	metricType() string // counter | gauge | histogram
	write(w io.Writer)
}

// Registry is a set of metrics with stable, sorted text exposition.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	helpFor map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]metric{}, helpFor: map[string]string{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library packages (e.g.
// internal/experiments) register their metrics here; the daemon exposes
// it at /metrics alongside its own registry.
func Default() *Registry { return defaultRegistry }

// register adds m under name, or returns the existing metric when one of
// the same type is already present. A name collision across types panics:
// that is a programming error, not an operational condition.
func (r *Registry) register(name, help string, m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		if old.metricType() != m.metricType() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				name, m.metricType(), old.metricType()))
		}
		return old
	}
	r.byName[name] = m
	r.helpFor[name] = help
	return m
}

// WritePrometheus emits every registered metric in the text exposition
// format, sorted by name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.byName))
	for name := range r.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	metrics := make([]metric, len(names))
	helps := make([]string, len(names))
	for i, name := range names {
		metrics[i] = r.byName[name]
		helps[i] = r.helpFor[name]
	}
	r.mu.Unlock()

	for i, m := range metrics {
		if helps[i] != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", names[i], helps[i])
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", names[i], m.metricType())
		m.write(w)
	}
}

// ----------------------------------------------------------------- counter

// Counter is a monotonically increasing integer series.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers (or fetches) a counter.
func NewCounter(r *Registry, name, help string) *Counter {
	return r.register(name, help, &Counter{name: name}).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the series monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// ------------------------------------------------------------------- gauge

// Gauge is an integer level (in-flight requests, cache entries, ...).
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers (or fetches) a gauge.
func NewGauge(r *Registry, name, help string) *Gauge {
	return r.register(name, help, &Gauge{name: name}).(*Gauge)
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc and Dec move the level by ±1.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.name, g.v.Load())
}

// GaugeFunc is a gauge whose value is computed at scrape time — the
// natural shape for cache sizes owned by another subsystem.
type GaugeFunc struct {
	name string
	fn   func() float64
}

// NewGaugeFunc registers a scrape-time gauge. Re-registering the same
// name keeps the first callback.
func NewGaugeFunc(r *Registry, name, help string, fn func() float64) *GaugeFunc {
	return r.register(name, help, &GaugeFunc{name: name, fn: fn}).(*GaugeFunc)
}

func (g *GaugeFunc) metricName() string { return g.name }
func (g *GaugeFunc) metricType() string { return "gauge" }
func (g *GaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// --------------------------------------------------------------- histogram

// DefaultLatencyBuckets spans 100µs .. ~100s in roughly 3× steps — wide
// enough for both cache hits (µs) and cold characterise-and-fit requests
// (tens of ms to seconds).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// DefaultRatioBuckets spans 0.1% .. 100% in roughly 2–3× steps, sized for
// dimensionless fractions such as confidence-interval half-widths and
// relative errors. The 0.01 boundary sits exactly on the yield engine's
// default ±1% CI contract, so "converged within contract" is one bucket
// lookup away.
var DefaultRatioBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket counts are cumulative, +Inf is implicit).
type Histogram struct {
	name    string
	uppers  []float64
	counts  []atomic.Int64 // one per upper bound
	all     atomic.Int64   // +Inf bucket (total observations)
	sumBits atomic.Uint64  // float64 sum, CAS-updated
}

// NewHistogram registers (or fetches) a histogram with the given upper
// bounds (must be sorted ascending; nil means DefaultLatencyBuckets).
func NewHistogram(r *Registry, name, help string, uppers []float64) *Histogram {
	if uppers == nil {
		uppers = DefaultLatencyBuckets
	}
	h := &Histogram{name: name, uppers: uppers, counts: make([]atomic.Int64, len(uppers))}
	return r.register(name, help, h).(*Histogram)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.uppers {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.all.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.all.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) write(w io.Writer) {
	var cum int64
	for i, ub := range h.uppers {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.all.Load())
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.all.Load())
}

// ------------------------------------------------------------ labelled vec

// CounterVec is a family of counters distinguished by label values, e.g.
// requests by (route, code).
type CounterVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*vecChild
}

type vecChild struct {
	labelStr string // rendered {k="v",...}
	v        atomic.Int64
}

// NewCounterVec registers (or fetches) a counter family.
func NewCounterVec(r *Registry, name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{name: name, labels: labels, kids: map[string]*vecChild{}}
	got := r.register(name, help, cv).(*CounterVec)
	if len(got.labels) != len(labels) {
		panic(fmt.Sprintf("obs: counter vec %q re-registered with different labels", name))
	}
	return got
}

func (cv *CounterVec) child(values []string) *vecChild {
	if len(values) != len(cv.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", cv.name, len(cv.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if k, ok := cv.kids[key]; ok {
		return k
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range cv.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l, values[i])
	}
	b.WriteByte('}')
	k := &vecChild{labelStr: b.String()}
	cv.kids[key] = k
	return k
}

// Value returns the current count for one label combination (0 when the
// combination has never been observed).
func (cv *CounterVec) Value(values ...string) int64 {
	return cv.child(values).v.Load()
}

// BoundCounter is one pre-resolved child of a CounterVec. Inc and Add are
// single atomic operations — no variadic slice, no label-key join, no map
// lookup — so hot paths (one event per fit) can count without allocating.
type BoundCounter struct{ c *vecChild }

// With resolves the child for the given label values once; the returned
// handle is safe for concurrent use and remains valid for the life of the
// process.
func (cv *CounterVec) With(values ...string) *BoundCounter {
	return &BoundCounter{c: cv.child(values)}
}

// Inc adds one.
func (b *BoundCounter) Inc() { b.c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the series monotone).
func (b *BoundCounter) Add(n int64) {
	if n > 0 {
		b.c.v.Add(n)
	}
}

// Value returns the current count.
func (b *BoundCounter) Value() int64 { return b.c.v.Load() }

// Inc adds one to the child for the given label values.
func (cv *CounterVec) Inc(values ...string) { cv.child(values).v.Add(1) }

// Add adds n to the child for the given label values (negative deltas
// are ignored to keep the series monotone).
func (cv *CounterVec) Add(n int64, values ...string) {
	if n > 0 {
		cv.child(values).v.Add(n)
	}
}

func (cv *CounterVec) metricName() string { return cv.name }
func (cv *CounterVec) metricType() string { return "counter" }
func (cv *CounterVec) write(w io.Writer) {
	cv.mu.Lock()
	kids := make([]*vecChild, 0, len(cv.kids))
	for _, k := range cv.kids {
		kids = append(kids, k)
	}
	cv.mu.Unlock()
	sort.Slice(kids, func(a, b int) bool { return kids[a].labelStr < kids[b].labelStr })
	for _, k := range kids {
		fmt.Fprintf(w, "%s%s %d\n", cv.name, k.labelStr, k.v.Load())
	}
}

// FloatGaugeVec is a family of float gauges distinguished by label
// values — e.g. per-journal resume ratios, where a single unlabelled
// gauge would be silently overwritten by whichever journal reported
// last.
type FloatGaugeVec struct {
	name   string
	labels []string
	mu     sync.Mutex
	kids   map[string]*floatVecChild
}

type floatVecChild struct {
	labelStr string
	bits     atomic.Uint64
}

// NewFloatGaugeVec registers (or fetches) a float gauge family.
func NewFloatGaugeVec(r *Registry, name, help string, labels ...string) *FloatGaugeVec {
	gv := &FloatGaugeVec{name: name, labels: labels, kids: map[string]*floatVecChild{}}
	got := r.register(name, help, gv).(*FloatGaugeVec)
	if len(got.labels) != len(labels) {
		panic(fmt.Sprintf("obs: gauge vec %q re-registered with different labels", name))
	}
	return got
}

func (gv *FloatGaugeVec) child(values []string) *floatVecChild {
	if len(values) != len(gv.labels) {
		panic(fmt.Sprintf("obs: %q wants %d label values, got %d", gv.name, len(gv.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	gv.mu.Lock()
	defer gv.mu.Unlock()
	if k, ok := gv.kids[key]; ok {
		return k
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range gv.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l, values[i])
	}
	b.WriteByte('}')
	k := &floatVecChild{labelStr: b.String()}
	gv.kids[key] = k
	return k
}

// Set replaces the level for one label combination.
func (gv *FloatGaugeVec) Set(v float64, values ...string) {
	gv.child(values).bits.Store(math.Float64bits(v))
}

// Value returns the current level for one label combination (0 when the
// combination has never been set).
func (gv *FloatGaugeVec) Value(values ...string) float64 {
	return math.Float64frombits(gv.child(values).bits.Load())
}

func (gv *FloatGaugeVec) metricName() string { return gv.name }
func (gv *FloatGaugeVec) metricType() string { return "gauge" }
func (gv *FloatGaugeVec) write(w io.Writer) {
	gv.mu.Lock()
	kids := make([]*floatVecChild, 0, len(gv.kids))
	for _, k := range gv.kids {
		kids = append(kids, k)
	}
	gv.mu.Unlock()
	sort.Slice(kids, func(a, b int) bool { return kids[a].labelStr < kids[b].labelStr })
	for _, k := range kids {
		fmt.Fprintf(w, "%s%s %s\n", gv.name, k.labelStr, formatFloat(math.Float64frombits(k.bits.Load())))
	}
}

// formatFloat renders a float the way Prometheus expects (no exponent
// for common magnitudes, minimal digits).
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
