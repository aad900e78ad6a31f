//go:build !race

package spice

import "testing"

var allocSink float64

// TestPointEvalAllocBudget requires preparing a point and evaluating it
// to allocate nothing, so the yield estimators' scoring workers stay
// allocation-free. (Skipped under -race, which inflates allocation
// counts.)
func TestPointEvalAllocBudget(t *testing.T) {
	e, c := testCell(), TTCorner()
	p := Params{VthN: 1, VthP: -0.5, Len: 0.3, MobN: -1, MobP: 2, Env: 0.1}
	if avg := testing.AllocsPerRun(100, func() {
		d, tr := e.At(c, 0.02, 0.01).Eval(p)
		allocSink = d + tr
	}); avg != 0 {
		t.Fatalf("At+Eval allocates %.1f times per call, budget 0", avg)
	}
}
