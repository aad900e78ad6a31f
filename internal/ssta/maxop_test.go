package ssta

import (
	"math"
	"math/rand"
	"testing"

	"lvf2/internal/stats"
)

// fourPassMaxMoments is the MaxMoments that re-evaluated the max density
// for each moment: four Simpson passes over the same nodes.
func fourPassMaxMoments(a, b stats.Dist) stats.SampleMoments {
	sa, sb := stats.Std(a), stats.Std(b)
	lo := math.Min(a.Mean()-10*sa, b.Mean()-10*sb)
	hi := math.Max(a.Mean()+10*sa, b.Mean()+10*sb)
	pdf := func(x float64) float64 {
		return a.PDF(x)*b.CDF(x) + a.CDF(x)*b.PDF(x)
	}
	quadrature := func(f func(float64) float64) float64 {
		const n = 192
		h := (hi - lo) / n
		sum := f(lo) + f(hi)
		for i := 1; i < n; i++ {
			x := lo + float64(i)*h
			if i%2 == 1 {
				sum += 4 * f(x)
			} else {
				sum += 2 * f(x)
			}
		}
		return sum * h / 3
	}
	m1 := quadrature(func(x float64) float64 { return x * pdf(x) })
	m2 := quadrature(func(x float64) float64 { d := x - m1; return d * d * pdf(x) })
	m3 := quadrature(func(x float64) float64 { d := x - m1; return d * d * d * pdf(x) })
	m4 := quadrature(func(x float64) float64 { d := x - m1; return d * d * d * d * pdf(x) })
	sm := stats.SampleMoments{Mean: m1, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// TestMaxMomentsTableBitIdentical checks that taking all four moments
// from one table of the max density changes no bit against evaluating
// the density again for each moment, over random LVF² component pairs
// and the Gaussian and degenerate cases.
func TestMaxMomentsTableBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	pairs := [][2]stats.Dist{
		{stats.Normal{Mu: 1, Sigma: 0.3}, stats.Normal{Mu: 1.2, Sigma: 0.4}},
		{stats.Normal{Mu: 1, Sigma: 0}, stats.Normal{Mu: 1, Sigma: 0}},
	}
	for i := 0; i < 40; i++ {
		a, b := randSNMix(r), randSNMix(r)
		pairs = append(pairs, [2]stats.Dist{a.Comps[0], b.Comps[1]}, [2]stats.Dist{a.Dist(), b.Dist()})
	}
	for i, p := range pairs {
		got, want := MaxMoments(p[0], p[1]), fourPassMaxMoments(p[0], p[1])
		if got != want && !(math.IsNaN(got.Mean) && math.IsNaN(want.Mean)) {
			t.Fatalf("pair %d: table %+v, four passes %+v", i, got, want)
		}
	}
}
