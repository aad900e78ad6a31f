package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ------------------------------------------------------------ statistics

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return 0
	}
	return m
}

// tailOf is the highest order statistic with at least ten samples
// beyond it — the sample maximum when there are ten or fewer.
func tailOf(xs []float64) float64 {
	if len(xs) <= 10 {
		return maxOf(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-11]
}

// windowedQ is the median over consecutive windows of `window` samples
// of each window's q-quantile. A stall of the shared host lands in one
// window and moves the median by at most one rank, where it would move
// a whole-step quantile by its full length. Fewer samples than one
// window fall back to the plain quantile.
func windowedQ(xs []float64, window int, q float64) float64 {
	if len(xs) < window {
		return quantile(xs, q)
	}
	var ps []float64
	for lo := 0; lo+window <= len(xs); lo += window {
		ps = append(ps, quantile(xs[lo:lo+window], q))
	}
	return median(ps)
}

// cpuStat reads the steal and total CPU time from /proc/stat; ok is
// false where it is unavailable.
func cpuStat() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ---------------------------------------------------------- runtime view

// runtimeCounters reads the process-wide allocation and GC counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// recordRuntime stores the per-operation allocation and the GC cycles
// between two readings.
func recordRuntime(out *outcome, before, after runtimeCounters, ops int) {
	if ops > 0 {
		out.layer["runtime.alloc_kb_per_op"] = float64(after.allocBytes-before.allocBytes) / 1024 / float64(ops)
	}
	out.layer["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
}

// heapWatch samples the heap in use every millisecond until stopped and
// returns the peak in MiB. The heap peaks just before each collection;
// a coarser sampler lands at a random height below that peak and
// reports a run-to-run spread the program does not have.
type heapWatch struct {
	stop chan struct{}
	done chan float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapWatch) peakMiB() float64 {
	close(h.stop)
	return <-h.done
}

// ----------------------------------------------------------------- spans

// span is one timed call the benchmark made into a layer (or observed
// at a seam it installed). Req links the spans of one request across
// the client, the handler of the replica it reached, the forward hop
// and the owner's handler.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Where  string `json:"where,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while enabled; writeFile dumps them at
// exit. Disabled, begin returns 0 and end is a no-op, so the untraced
// run pays one atomic load per seam.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t.on.Load() }

// begin opens a span and returns its id (0 when tracing is off) and its
// start time.
func (t *tracer) begin() (int64, time.Time) {
	if !t.on.Load() {
		return 0, time.Now()
	}
	return t.ids.Add(1), time.Now()
}

// end closes a span opened by begin.
func (t *tracer) end(id, parent, req int64, name, where string, start time.Time) {
	if id == 0 {
		return
	}
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Where: where,
		Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()})
}

// record stores a finished span measured by the caller.
func (t *tracer) record(parent, req int64, name, where string, start time.Time, d time.Duration) int64 {
	id := t.ids.Add(1)
	s := start.Sub(t.epoch).Nanoseconds()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Where: where, Start: s, End: s + d.Nanoseconds()})
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(a, b int) bool { return ch[a].Start < ch[b].Start })
		var covered, curEnd int64
		curStart := int64(-1)
		for _, c := range ch {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if curStart < 0 || lo > curEnd {
				if curStart >= 0 {
					covered += curEnd - curStart
				}
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curStart >= 0 {
			covered += curEnd - curStart
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// writeFile dumps every span, one JSON object per line, with its self
// time.
func (t *tracer) writeFile(path string) error {
	spans := t.all()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, self[s.ID].Nanoseconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveTrace writes the span log next to the work directory and records
// its size.
func saveTrace(e *env, t *tracer, out *outcome) {
	path := fmt.Sprintf("%s.spans.jsonl", e.dir)
	if err := t.writeFile(path); err != nil {
		out.problem("write span log: %v", err)
		return
	}
	out.layer["trace.spans"] = float64(len(t.all()))
	out.reportf("span log: %s", path)
}

// overhead records traced minus untraced for every end-to-end metric
// the traced phase re-measured.
func overhead(out *outcome, untraced, traced map[string]float64) {
	for k, v := range traced {
		if u, ok := untraced[k]; ok && k != "setup_s" {
			out.layer["trace.overhead."+k] = v - u
		}
	}
}

// reqKey is the context key of the benchmark's request id.
type reqKey struct{}

func withReq(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) int64 {
	id, _ := ctx.Value(reqKey{}).(int64)
	return id
}
