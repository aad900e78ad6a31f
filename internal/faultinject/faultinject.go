// Package faultinject provides seedable fault injectors for the
// characterisation → fit → emit pipeline's robustness tests: contaminated
// sample sets (NaN, all-identical, undersized) and faulty Monte-Carlo
// evaluators (panicking, sample-corrupting). Every injector is
// deterministic given its seed and safe for concurrent use — shared
// state would make -race runs of the parallel pipeline flaky.
package faultinject

import (
	"hash/fnv"
	"math"

	"lvf2/internal/cells"
	"lvf2/internal/mc"
	"lvf2/internal/spice"
)

// ContaminateNaN returns a copy of xs with ~frac of the entries replaced
// by NaN at seeded-random positions (at least one when frac > 0).
func ContaminateNaN(xs []float64, frac float64, seed uint64) []float64 {
	return contaminate(xs, frac, seed, math.NaN())
}

func contaminate(xs []float64, frac float64, seed uint64, v float64) []float64 {
	out := append([]float64(nil), xs...)
	if len(out) == 0 || frac <= 0 {
		return out
	}
	k := int(frac * float64(len(out)))
	if k < 1 {
		k = 1
	}
	rng := mc.NewRNG(seed | 1)
	for _, i := range rng.Perm(len(out))[:min(k, len(out))] {
		out[i] = v
	}
	return out
}

// Identical builds the all-identical sample set that defeats every
// variance-based fitter.
func Identical(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// Truncate keeps only the first n samples (n < 5 starves the fitters).
func Truncate(xs []float64, n int) []float64 {
	if n > len(xs) {
		n = len(xs)
	}
	return append([]float64(nil), xs[:n]...)
}

// PanicOnArcs wraps the default evaluator with one that panics for the
// listed arc labels — the simulated evaluator crash of the pipeline's
// panic-recovery tests.
func PanicOnArcs(labels ...string) cells.EvalFunc {
	set := make(map[string]bool, len(labels))
	for _, l := range labels {
		set[l] = true
	}
	return func(arc cells.Arc, corner spice.Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s spice.Sampler) spice.MCResult {
		if set[arc.Label] {
			panic("faultinject: simulated evaluator crash on " + arc.Label)
		}
		return cells.DefaultEval(arc, corner, rng, n, slewNS, loadPF, s)
	}
}

// CorruptingEval wraps the default evaluator with one that NaN-floods a
// seeded fraction of every delay sample set. Each grid point derives its
// own RNG from the arc label, so concurrent arcs share no state.
func CorruptingEval(frac float64, seed uint64) cells.EvalFunc {
	return func(arc cells.Arc, corner spice.Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s spice.Sampler) spice.MCResult {
		res := cells.DefaultEval(arc, corner, rng, n, slewNS, loadPF, s)
		res.Delays = ContaminateNaN(res.Delays, frac, seed^labelSeed(arc.Label))
		return res
	}
}

func labelSeed(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
