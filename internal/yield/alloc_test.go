//go:build !race

package yield

import (
	"testing"

	"lvf2/internal/mc"
)

// TestScoreBatchAllocBudget requires a steady-state estimator batch —
// draw, score over helper goroutines, fold — to allocate nothing.
// (Skipped under -race, which inflates allocation counts.)
func TestScoreBatchAllocBudget(t *testing.T) {
	spec := arcSpec(t, 4)
	const batch = 4096
	sc := newScorer(spec, batch, 4)
	defer sc.stop()
	if sc.workers != 4 {
		t.Fatalf("scorer runs %d workers, want 4", sc.workers)
	}
	rng := mc.NewRNG(1)
	var m mc.Matrix
	center := []float64{2, -1, 0.5, 0, 0.3, 0.1}
	var a acc
	c := Contract{}.WithDefaults()
	step := func() {
		sc.score(mc.LatinHypercubeInto(rng, batch, spec.Dim, &m), center)
		for i := 0; i < batch; i++ {
			a.observe(sc.w[i], sc.fail[i])
		}
		a.batches++
		a.result("mnis", c, 0, nil)
	}
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("one estimator batch allocates %.1f times, budget 0", avg)
	}
}
