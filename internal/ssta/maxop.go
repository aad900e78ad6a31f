package ssta

import (
	"math"

	"lvf2/internal/stats"
)

// MaxMoments computes the first four moments of max(A, B) for independent
// A, B by numeric quadrature of the max density
//
//	f_max(x) = f_A(x)·F_B(x) + F_A(x)·f_B(x)
//
// over the union of both supports (each truncated at ±10σ). The density
// is tabulated once at the maxNodes Simpson nodes and all four moments
// are taken from that table, so each input CDF is evaluated maxNodes
// times. The table stays on the stack.
func MaxMoments(a, b stats.Dist) stats.SampleMoments {
	sa, sb := stats.Std(a), stats.Std(b)
	lo := math.Min(a.Mean()-10*sa, b.Mean()-10*sb)
	hi := math.Max(a.Mean()+10*sa, b.Mean()+10*sb)
	h := (hi - lo) / maxIntervals
	var xs, pdf [maxNodes]float64
	for i := range xs {
		x := lo + float64(i)*h
		if i == maxIntervals {
			x = hi
		}
		xs[i] = x
		pdf[i] = a.PDF(x)*b.CDF(x) + a.CDF(x)*b.PDF(x)
	}
	m1 := simpson(&xs, &pdf, h, func(x float64) float64 { return x })
	m2 := simpson(&xs, &pdf, h, func(x float64) float64 { d := x - m1; return d * d })
	m3 := simpson(&xs, &pdf, h, func(x float64) float64 { d := x - m1; return d * d * d })
	m4 := simpson(&xs, &pdf, h, func(x float64) float64 { d := x - m1; return d * d * d * d })
	sm := stats.SampleMoments{Mean: m1, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// maxIntervals is the even number of Simpson intervals MaxMoments uses,
// sufficient for the smooth max densities handled here; maxNodes counts
// their end points.
const (
	maxIntervals = 192
	maxNodes     = maxIntervals + 1
)

// simpson applies composite Simpson weights to w(x)·pdf(x) over the
// tabulated nodes. It adds the terms in the order a scalar quadrature of
// the integrand x ↦ w(x)·f_max(x) would, so each moment is bit-identical
// to evaluating the density again for it.
func simpson(xs, pdf *[maxNodes]float64, h float64, w func(float64) float64) float64 {
	sum := w(xs[0])*pdf[0] + w(xs[maxIntervals])*pdf[maxIntervals]
	for i := 1; i < maxIntervals; i++ {
		if i%2 == 1 {
			sum += 4 * (w(xs[i]) * pdf[i])
		} else {
			sum += 2 * (w(xs[i]) * pdf[i])
		}
	}
	return sum * h / 3
}

// ClarkMax returns the Clark (1961) closed-form mean and variance of
// max(A, B) for jointly Gaussian A, B with correlation rho — the classical
// block-based SSTA max of Devgan & Kashyap. Provided for reference and as
// a fast path for Gaussian variables; the generic quadrature above handles
// the non-Gaussian families.
func ClarkMax(mu1, var1, mu2, var2, rho float64) (mean, variance float64) {
	a2 := var1 + var2 - 2*rho*math.Sqrt(var1*var2)
	if a2 <= 0 {
		// Perfectly correlated equal-variance inputs: max is the larger.
		if mu1 >= mu2 {
			return mu1, var1
		}
		return mu2, var2
	}
	a := math.Sqrt(a2)
	alpha := (mu1 - mu2) / a
	phi := stats.StdNormPDF(alpha)
	Phi := stats.StdNormCDF(alpha)
	mean = mu1*Phi + mu2*(1-Phi) + a*phi
	ex2 := (var1+mu1*mu1)*Phi + (var2+mu2*mu2)*(1-Phi) + (mu1+mu2)*a*phi
	variance = ex2 - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}
