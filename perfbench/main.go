// Command perfbench is the lvf2 end-to-end benchmark. It drives four
// seeded workloads from outside the program — a library build through
// libbuild, and lvf2d's HTTP surface on loopback — checks every answer,
// and prints one JSON result line:
//
//	perfbench -benchmark BENCHMARK.json -workload serve -seed 1 -seconds 20 -trace 0
//
// BENCHMARK.json names the workloads and the metrics. definition.json,
// embedded in the binary, adds what that file's fixed schema has no room
// for: each workload's loop, client count, rates and p99 limit, the serve
// and fleet request mix, what each end-to-end metric means per workload
// and which end-to-end metric each per-layer metric should move. Both
// files must name the same workloads and metrics, or perfbench refuses
// to run. With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, measured by spans around
// the benchmark's own calls, the program's existing counters, public
// seams and replays of the daemon's layer calls.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed definition.json
var definitionJSON []byte

// metricDef is one metric BENCHMARK.json declares: the name and unit
// the result line carries. Its direction and bound are for the runner.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// workloadDef fixes a workload's load shape. Rates and the p99 limit are
// set once in definition.json and never derived at run time.
type workloadDef struct {
	Name       string    `json:"-"`
	Clients    int       `json:"clients"`
	LowQPS     float64   `json:"low_qps,omitempty"`
	HighQPS    float64   `json:"high_qps,omitempty"`
	LadderQPS  []float64 `json:"ladder_qps,omitempty"`
	P99LimitMS float64   `json:"p99_limit_ms,omitempty"`
}

// mixDef is the serve and fleet request mix: each class's fixed share of
// the stream, in draw order, and the Zipf exponent over a class's keys.
type mixDef struct {
	Shares []struct {
		Class string  `json:"class"`
		Share float64 `json:"share"`
	} `json:"shares"`
	ZipfS float64 `json:"zipf_s"`
}

type definition struct {
	RunSeconds int
	Workloads  map[string]workloadDef
	EndToEnd   []metricDef
	PerLayer   []metricDef
	Mix        mixDef
}

// loadDefinition reads BENCHMARK.json at path and the embedded
// definition.json, and checks that they agree.
func loadDefinition(path string) (*definition, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var extra struct {
		Workloads map[string]workloadDef       `json:"workloads"`
		Mix       mixDef                       `json:"serve_mix"`
		Means     map[string]map[string]string `json:"means"`
		Moves     map[string]string            `json:"moves"`
	}
	if err := json.Unmarshal(definitionJSON, &extra); err != nil {
		return nil, fmt.Errorf("definition.json: %w", err)
	}
	d := &definition{RunSeconds: bench.RunSeconds, Workloads: map[string]workloadDef{},
		EndToEnd: bench.EndToEnd, PerLayer: bench.PerLayer, Mix: extra.Mix}
	var wls []string
	for _, w := range bench.Workloads {
		wls = append(wls, w.Name)
		wd := extra.Workloads[w.Name]
		wd.Name = w.Name
		// The why line repeats the rates and the p99 limit for readers of
		// BENCHMARK.json; it must repeat them right.
		if wd.HighQPS > 0 {
			for _, s := range []string{fmt.Sprintf("%g/%g req/s", wd.LowQPS, wd.HighQPS), fmt.Sprintf("p99 limit %g ms", wd.P99LimitMS)} {
				if !strings.Contains(w.Why, s) {
					return nil, fmt.Errorf("%s: the why of %s does not say %q, as definition.json sets", path, w.Name, s)
				}
			}
		}
		d.Workloads[w.Name] = wd
	}
	checks := []struct {
		what       string
		bench, def []string
	}{
		{"workload", wls, keys(extra.Workloads)},
		{"end-to-end metric", names(bench.EndToEnd), keys(extra.Means)},
		{"per-layer metric", names(bench.PerLayer), keys(extra.Moves)},
	}
	for _, c := range checks {
		if err := sameNames(c.what, path, c.bench, c.def); err != nil {
			return nil, err
		}
	}
	var total float64
	for _, s := range d.Mix.Shares {
		total += s.Share
	}
	if math.Abs(total-1) > 1e-9 || d.Mix.ZipfS <= 1 {
		return nil, fmt.Errorf("definition.json: serve_mix shares sum to %g (want 1), zipf_s %g (want > 1)", total, d.Mix.ZipfS)
	}
	return d, nil
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func names(ms []metricDef) []string {
	var ns []string
	for _, m := range ms {
		ns = append(ns, m.Name)
	}
	return ns
}

// sameNames reports the first name one file has and the other lacks.
func sameNames(what, path string, bench, def []string) error {
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	b, d := in(bench), in(def)
	sort.Strings(bench)
	sort.Strings(def)
	for _, n := range bench {
		if !d[n] {
			return fmt.Errorf("%s %s is in %s but not in definition.json", what, n, path)
		}
	}
	for _, n := range def {
		if !b[n] {
			return fmt.Errorf("%s %s is in definition.json but not in %s", what, n, path)
		}
	}
	return nil
}

// env is what one run knows: its workload, seed, time budget and a
// private scratch directory.
type env struct {
	def     *definition
	wl      workloadDef
	seed    uint64
	seconds float64
	trace   bool
	dir     string
}

// outcome is a workload's answer: the attempted/failed counts, the
// metrics it measured and human-readable report lines. Problems are
// correctness failures (output checks, replay fidelity).
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	report            []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) reportf(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"charlib":  runCharlib,
	"serve":    runServe,
	"fleet":    runFleet,
	"analysis": runAnalysis,
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	var (
		benchmark = flag.String("benchmark", "BENCHMARK.json", "the benchmark's BENCHMARK.json")
		workload  = flag.String("workload", "", "workload to run: charlib | serve | fleet | analysis")
		seed      = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 0, "measured seconds (default BENCHMARK.json's run_seconds)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir   = flag.String("workdir", ".bench_build/work", "scratch directory (journals, emitted libraries, span logs)")
	)
	flag.Parse()
	def, err := loadDefinition(*benchmark)
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	wl, declared := def.Workloads[*workload]
	if !ok || !declared {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace wants 0 or 1, got %d", *trace))
	}
	secs := *seconds
	if secs <= 0 {
		secs = float64(def.RunSeconds)
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	e := &env{def: def, wl: wl, seed: *seed, seconds: secs, trace: *trace == 1, dir: dir}
	steal0, total0, statOK := cpuStat()
	out, err := run(e)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	// CPU time the hypervisor gave to other guests while this run
	// wanted it: a high figure marks the run's timings as disturbed.
	if steal1, total1, ok := cpuStat(); statOK && ok && total1 > total0 {
		out.reportf("host steal: %.1f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	emit(e, out)
	// Only the span log survives the run.
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// emit prints the report and the result line. Every declared metric of
// the run's kind must have been measured; a per-layer metric of a layer
// the workload does not exercise reads 0.
func emit(e *env, out *outcome) {
	defs, got := e.def.EndToEnd, out.e2e
	if e.trace {
		defs, got = e.def.PerLayer, out.layer
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]resultMetric, len(defs)),
	}
	for _, m := range defs {
		v, ok := got[m.Name]
		if !ok && !e.trace {
			fatal(fmt.Errorf("%s: end-to-end metric %s was not measured", e.wl.Name, m.Name))
		}
		res.Metrics[m.Name] = resultMetric{Value: v, Unit: m.Unit}
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", e.wl.Name, e.seed, e.seconds, e.trace)
	for _, line := range out.report {
		fmt.Println("#", line)
	}
	for _, p := range out.problems {
		fmt.Println("# PROBLEM:", p)
	}
	printMetrics("end-to-end", e.def.EndToEnd, out.e2e)
	if e.trace {
		printMetrics("per-layer", e.def.PerLayer, out.layer)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func printMetrics(title string, defs []metricDef, got map[string]float64) {
	fmt.Printf("# %s metrics:\n", title)
	for _, m := range defs {
		if v, ok := got[m.Name]; ok {
			fmt.Printf("#   %-36s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	// Values a workload reports beside the declared metrics (the
	// per-rate latencies, per-class medians and the ladder's max_qps),
	// in sorted order.
	known := map[string]bool{}
	for _, m := range defs {
		known[m.Name] = true
	}
	var extra []string
	for k := range got {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("#   %-36s %14.6g %s\n", k, got[k], reportUnits[k])
	}
}

// reportUnits are the units of the reported, ungated values.
var reportUnits = map[string]string{
	"fail_ratio": "ratio", "cells_per_s": "cells/s", "answers_per_s": "answers/s",
	"max_qps": "req/s", "trace.overhead.max_qps": "req/s",
	"saturated_qps": "req/s", "trace.overhead.saturated_qps": "req/s",
	"p50_ms.low": "ms", "p99_ms.low": "ms", "p50_ms.high": "ms", "p99_ms.high": "ms",
	"refit_p50_ms": "ms", "ssta_p50_ms": "ms", "estimate_p50_ms": "ms",
}
