package fit

import (
	"fmt"
	"math"
	"testing"

	"lvf2/internal/mc"
	"lvf2/internal/opt"
	"lvf2/internal/stats"
)

// refMLEScratch and refWeightedSNMLE are the simplex M-step the Newton
// solve replaced, kept verbatim as the oracle's reference: a 3-parameter
// Nelder–Mead search of the same objective over the same subsample.
type refMLEScratch struct {
	subX, subW []float64
	wsum       float64
	x0         [3]float64
	nm         opt.Workspace
	obj        func([]float64) float64
}

func (s *refMLEScratch) objective(p []float64) float64 {
	if math.Abs(p[2]) > 80 || p[1] > 50 || p[1] < -80 {
		return math.Inf(1)
	}
	xi, logOmega, alpha := p[0], p[1], p[2]
	invOmega := math.Exp(-logOmega)
	var sum float64
	subX, subW := s.subX, s.subW
	for i, x := range subX {
		z := (x - xi) * invOmega
		phi := stats.StdNormCDF(alpha * z)
		if phi < 1e-300 {
			phi = 1e-300
		}
		sum += subW[i] * (0.5*z*z - math.Log(phi))
	}
	return sum + s.wsum*logOmega
}

func refWeightedSNMLE(xs, ws []float64, init stats.SkewNormal, scr *refMLEScratch) stats.SkewNormal {
	if init.Omega <= 0 {
		return init
	}
	stride := 1
	if len(xs) > maxObjPoints {
		stride = (len(xs) + maxObjPoints - 1) / maxObjPoints
	}
	scr.subX = scr.subX[:0]
	scr.subW = scr.subW[:0]
	var wsum float64
	for i := 0; i < len(xs); i += stride {
		if w := ws[i]; w > 1e-12 {
			scr.subX = append(scr.subX, xs[i])
			scr.subW = append(scr.subW, w)
			wsum += w
		}
	}
	if len(scr.subX) == 0 {
		return init
	}
	scr.wsum = wsum
	if scr.obj == nil {
		scr.obj = scr.objective
	}
	scr.x0 = [3]float64{init.Xi, math.Log(init.Omega), init.Alpha}
	best, nll := opt.NelderMeadWs(scr.obj, scr.x0[:], opt.NelderMeadOptions{
		MaxIter: 100,
		TolF:    1e-9 * (1 + wsum),
		TolX:    1e-8,
	}, &scr.nm)
	if math.IsInf(nll, 1) {
		return init
	}
	return stats.SkewNormal{Xi: best[0], Omega: math.Exp(best[1]), Alpha: best[2]}
}

// mstepCase is one weighted M-step problem with its warm start.
type mstepCase struct {
	label string
	xs    []float64
	ws    []float64
	init  stats.SkewNormal
}

// mstepOracle runs one case through the Newton M-step and the simplex
// reference and returns the objective gap (new − reference), the total
// weight W and whether the reference ended on the |α| rail.
func mstepOracle(c mstepCase, scr *mleScratch, ref *refMLEScratch) (gap, w float64, railed bool) {
	got := weightedSNMLE(c.xs, c.ws, c.init, scr)
	want := refWeightedSNMLE(c.xs, c.ws, c.init, ref)
	var d snDerivs
	param := func(sn stats.SkewNormal) [3]float64 { return [3]float64{sn.Xi, math.Log(sn.Omega), sn.Alpha} }
	return scr.eval(param(got), &d) - scr.eval(param(want), &d), scr.wsum, math.Abs(want.Alpha) >= 79
}

// withStarts expands a fitted component into the oracle's three starts:
// the component itself, its mirror in α, and α = 0.
func withStarts(label string, xs, ws []float64, c stats.SkewNormal) []mstepCase {
	neg, zero := c, c
	neg.Alpha = -c.Alpha
	zero.Alpha = 0
	return []mstepCase{
		{label + "/fit", xs, ws, c},
		{label + "/-alpha", xs, ws, neg},
		{label + "/alpha0", xs, ws, zero},
	}
}

// checkMStepOracle asserts the Newton M-step lands no more than
// 1e-6·(1+W) above the simplex reference on every case, except where the
// reference itself ended railed at |α| ≥ 79.
func checkMStepOracle(t *testing.T, cases []mstepCase) {
	t.Helper()
	var scr mleScratch
	var ref refMLEScratch
	var worst float64
	for _, c := range cases {
		gap, w, railed := mstepOracle(c, &scr, &ref)
		rel := gap / (1 + w)
		if rel > worst && !railed {
			worst = rel
		}
		if rel > 1e-6 && !railed {
			t.Errorf("%s: Newton objective %.3g above the simplex reference (W=%.4g, limit 1e-6·(1+W))", c.label, gap, w)
		}
	}
	t.Logf("%d M-step calls, worst gap %.3g·(1+W)", len(cases), worst)
}

// snSample draws n points of sn from a fixed seed.
func snSample(sn stats.SkewNormal, n int, seed uint64) []float64 {
	rng := mc.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = sn.Sample(rng)
	}
	return xs
}

// TestWeightedSNMLESyntheticOracle covers the shapes the Newton M-step
// finds hardest: a true α ≈ 0 (the stationary point at α = 0 is then the
// optimum's neighbour), strongly skewed components (|α| ≥ 20, near the
// box) and components with little total weight (W < 20).
func TestWeightedSNMLESyntheticOracle(t *testing.T) {
	ones := func(n int) []float64 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = 1
		}
		return ws
	}
	var cases []mstepCase
	for i, truth := range []stats.SkewNormal{
		{Xi: 0.1, Omega: 0.004, Alpha: 0.02},
		{Xi: -2, Omega: 1.5, Alpha: -0.01},
		{Xi: 0.1, Omega: 0.004, Alpha: 25},
		{Xi: 3, Omega: 0.5, Alpha: -40},
	} {
		xs := snSample(truth, 1500, uint64(11+i))
		// A warm start perturbed off the truth, as an ECM round sees it.
		m := stats.Moments(xs)
		init := stats.SNFromMoments(m.Mean, m.Std()*1.1, 0.3)
		cases = append(cases, withStarts(fmt.Sprintf("truth%d", i), xs, ones(len(xs)), init)...)
		cases = append(cases, withStarts(fmt.Sprintf("truth%d/exact", i), xs, ones(len(xs)), truth)...)
	}
	// W < 20: a minor component's responsibilities over a larger sample.
	for i, truth := range []stats.SkewNormal{
		{Xi: 1, Omega: 0.2, Alpha: 3},
		{Xi: 1, Omega: 0.2, Alpha: 0},
		{Xi: 1, Omega: 0.2, Alpha: -30},
	} {
		xs := snSample(truth, 400, uint64(31+i))
		rng := mc.NewRNG(uint64(41 + i))
		ws := make([]float64, len(xs))
		for j := range ws {
			ws[j] = 0.08 * rng.Float64()
		}
		cases = append(cases, withStarts(fmt.Sprintf("lowW%d", i), xs, ws, truth)...)
	}
	checkMStepOracle(t, cases)
}

// TestSNMLEDerivatives checks eval's analytic gradient and Hessian
// against central differences of the objective, in the solver's local
// coordinates (δξ/ω, δ log ω, δα).
func TestSNMLEDerivatives(t *testing.T) {
	xs := snSample(stats.SkewNormal{Xi: 0.1, Omega: 0.004, Alpha: 3}, 800, 5)
	rng := mc.NewRNG(6)
	ws := make([]float64, len(xs))
	for i := range ws {
		ws[i] = rng.Float64()
	}
	scr := &mleScratch{subX: xs, subW: ws}
	for _, w := range ws {
		scr.wsum += w
	}
	var d snDerivs
	f := func(p [3]float64) float64 { return scr.eval(p, &d) }
	// trueGrad is the gradient in (ξ, log ω, α).
	trueGrad := func(p [3]float64) [3]float64 {
		scr.eval(p, &d)
		return [3]float64{d.g[0] / math.Exp(p[1]), d.g[1], d.g[2]}
	}
	for _, p := range [][3]float64{
		{0.1, math.Log(0.004), 3},
		{0.103, math.Log(0.003), 0},
		{0.097, math.Log(0.006), -2},
		{0.1, math.Log(0.004), 15},
	} {
		var got snDerivs
		scr.eval(p, &got)
		omega := math.Exp(p[1])
		scale := [3]float64{omega, 1, 1} // local = scale · true
		steps := [3]float64{1e-5 * omega, 1e-5, 1e-5}
		for i := 0; i < 3; i++ {
			lo, hi := p, p
			lo[i] -= steps[i]
			hi[i] += steps[i]
			fd := (f(hi) - f(lo)) / (2 * steps[i]) * scale[i]
			if diff := math.Abs(fd - got.g[i]); diff > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("p=%v: g[%d] = %.10g, central difference %.10g", p, i, got.g[i], fd)
			}
			gl, gh := trueGrad(lo), trueGrad(hi)
			for j := 0; j < 3; j++ {
				fd := (gh[j] - gl[j]) / (2 * steps[i]) * scale[i] * scale[j]
				if diff := math.Abs(fd - got.h[i][j]); diff > 1e-5*(1+math.Abs(fd)) {
					t.Errorf("p=%v: h[%d][%d] = %.10g, central difference %.10g", p, i, j, got.h[i][j], fd)
				}
			}
		}
	}
}
