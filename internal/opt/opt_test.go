package opt

import (
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1)
	}
	x, v := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 {
		t.Errorf("minimiser %v", x)
	}
	if v > 1e-7 {
		t.Errorf("min value %v", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _ := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 5000})
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimiser %v", x)
	}
}

func TestNelderMeadRejectsInfeasible(t *testing.T) {
	// Constrained region x > 0 enforced by +Inf.
	f := func(x []float64) float64 {
		if x[0] <= 0 {
			return math.Inf(1)
		}
		return (math.Log(x[0]) - 1) * (math.Log(x[0]) - 1)
	}
	x, _ := NelderMead(f, []float64{0.5}, NelderMeadOptions{MaxIter: 2000})
	if math.Abs(x[0]-math.E) > 1e-3 {
		t.Errorf("constrained minimiser %v want e", x[0])
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	called := false
	_, v := NelderMead(func(x []float64) float64 { called = true; return 42 }, nil, NelderMeadOptions{})
	if !called || v != 42 {
		t.Error("empty input should evaluate f once")
	}
}

func TestNelderMeadZeroStartingPoint(t *testing.T) {
	// Starting exactly at a coordinate of zero must still build a
	// non-degenerate simplex.
	f := func(x []float64) float64 { return (x[0] - 0.5) * (x[0] - 0.5) }
	x, _ := NelderMead(f, []float64{0}, NelderMeadOptions{})
	if math.Abs(x[0]-0.5) > 1e-5 {
		t.Errorf("minimiser %v", x[0])
	}
}
