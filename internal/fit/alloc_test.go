//go:build !race

package fit

import (
	"testing"

	"lvf2/internal/stats"
)

// allocBudget is the steady-state heap-allocation ceiling for one warm
// LVF² fit through a reused workspace. The pre-workspace implementation
// allocated 277 times per fit; the budget enforces the ≥10× reduction with
// headroom for the few remaining fixed allocations (closure headers on the
// first NM call of a fresh scratch, pool internals).
const allocBudget = 24

// TestFitLVF2AllocBudget pins the tentpole's zero-steady-state-allocation
// claim: after a warm-up fit, repeated serial fits through the same
// workspace must stay within allocBudget allocations each. (Skipped under
// -race, which inflates allocation counts.)
func TestFitLVF2AllocBudget(t *testing.T) {
	xs := determinismSamples(t, 3000, 1234)
	var fw Workspace
	o := Options{Serial: true}
	if _, err := FitLVF2Ws(xs, o, &fw); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := FitLVF2Ws(xs, o, &fw); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudget {
		t.Fatalf("FitLVF2Ws allocates %.1f times per warm fit, budget %d", avg, allocBudget)
	}
}

// TestFitNorm2AllocBudget does the same for the fused Norm² EM.
func TestFitNorm2AllocBudget(t *testing.T) {
	xs := determinismSamples(t, 3000, 1234)
	var fw Workspace
	if _, err := fitNorm2(xs, Options{}, &fw); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := fitNorm2(xs, Options{}, &fw); err != nil {
			t.Fatal(err)
		}
	})
	if avg > allocBudget {
		t.Fatalf("fitNorm2 allocates %.1f times per warm fit, budget %d", avg, allocBudget)
	}
}

// TestWeightedSNMLEAllocBudget: a steady-state M-step call, its scratch
// already grown, allocates nothing — including a call that ends near
// α = 0 and runs the two restarts.
func TestWeightedSNMLEAllocBudget(t *testing.T) {
	xs := determinismSamples(t, 3000, 1234)
	ws := make([]float64, len(xs))
	for i := range ws {
		ws[i] = 0.25 + 0.5*float64(i%3)
	}
	var scr mleScratch
	for _, init := range []stats.SkewNormal{
		{Xi: 0.105, Omega: 0.012, Alpha: 2},
		{Xi: 0.11, Omega: 0.01, Alpha: 0},
	} {
		weightedSNMLE(xs, ws, init, &scr)
		if avg := testing.AllocsPerRun(10, func() { weightedSNMLE(xs, ws, init, &scr) }); avg != 0 {
			t.Errorf("weightedSNMLE from %+v allocates %.1f times per steady-state call, want 0", init, avg)
		}
	}
}
