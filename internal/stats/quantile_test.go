package stats

import (
	"fmt"
	"math"
	"testing"
)

// countingDist counts the CDF evaluations a quantile solve makes.
type countingDist struct {
	Dist
	cdfs int
}

func (c *countingDist) CDF(x float64) float64 {
	c.cdfs++
	return c.Dist.CDF(x)
}

// bisectQuantile is the bisection Quantile the Newton solve replaced:
// the same bracket, halved until it is 1e-13·(1+|lo|) wide.
func bisectQuantile(d Dist, p float64) float64 {
	m, s := d.Mean(), Std(d)
	lo, hi := m-8*s, m+8*s
	for i := 0; d.CDF(lo) > p && i < 64; i++ {
		lo -= 8 * s
	}
	for i := 0; d.CDF(hi) < p && i < 64; i++ {
		hi += 8 * s
	}
	for i := 0; i < 200 && hi-lo > 1e-13*(1+math.Abs(lo)); i++ {
		mid := 0.5 * (lo + hi)
		if d.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// quantileCases are the shapes a refit's quantile grid meets: single
// SNs over the shape range, tiny scales at extreme shapes, and LVF²
// mixtures whose modes sit 8σ, 20σ and 30σ apart, so the CDF is flat between
// them.
func quantileCases() map[string]Dist {
	cases := map[string]Dist{}
	for _, alpha := range []float64{0, 0.5, -2, 5, -40} {
		cases[fmt.Sprintf("sn/alpha=%g", alpha)] = SkewNormal{Xi: 0.1, Omega: 0.01, Alpha: alpha}
	}
	for _, alpha := range []float64{3, 40, -40} {
		cases[fmt.Sprintf("tiny/alpha=%g", alpha)] = SkewNormal{Xi: 0.25, Omega: 1e-7, Alpha: alpha}
	}
	for _, lambda := range []float64{0.03, 0.3, 0.7} {
		for _, sep := range []float64{8, 20, 30} {
			a := SNFromMoments(0.1, 0.002, 0.4)
			b := SNFromMoments(0.1+sep*0.002, 0.003, -0.6)
			m, err := NewMixture([]float64{1 - lambda, lambda}, []Dist{a, b})
			if err != nil {
				panic(err)
			}
			cases[fmt.Sprintf("mix/lambda=%g/sep=%g", lambda, sep)] = m
		}
	}
	return cases
}

// TestQuantileProperties runs the 2048-point midpoint grid of a refit
// over every case and checks that the quantile is monotone in p, that
// F(Q(p)) = p to within the solve's tolerance, that it agrees with the
// bisection it replaced to 1e-13·(1+|x|), and that no point costs more
// than 16 CDF evaluations.
func TestQuantileProperties(t *testing.T) {
	const n = 2048
	for name, d := range quantileCases() {
		c := &countingDist{Dist: d}
		prev := math.Inf(-1)
		worst, total := 0, 0
		for i := 0; i < n; i++ {
			p := (float64(i) + 0.5) / n
			c.cdfs = 0
			x := Quantile(c, p)
			total += c.cdfs
			if c.cdfs > worst {
				worst = c.cdfs
			}
			tol := 1e-13 * (1 + math.Abs(x))
			if x < prev {
				t.Fatalf("%s: Q(%v) = %v < Q of the previous point %v", name, p, x, prev)
			}
			prev = x
			if r := math.Abs(d.CDF(x) - p); r > d.PDF(x)*tol+1e-15 {
				t.Fatalf("%s: |F(Q(%v)) − p| = %.3g, beyond f·tol = %.3g", name, p, r, d.PDF(x)*tol)
			}
			if want := bisectQuantile(d, p); math.Abs(x-want) > tol {
				t.Fatalf("%s: Q(%v) = %.17g, bisection %.17g", name, p, x, want)
			}
		}
		if worst > 16 {
			t.Errorf("%s: up to %d CDF evaluations per point, budget 16", name, worst)
		}
		t.Logf("%-22s CDF evaluations per point: mean %.2f, max %d", name, float64(total)/n, worst)
	}
}
