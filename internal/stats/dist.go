package stats

import (
	"math"
)

// Dist is a univariate continuous probability distribution.
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Mean returns the first moment.
	Mean() float64
	// Variance returns the second central moment.
	Variance() float64
}

// Sampler is implemented by distributions that can draw random variates.
// Source abstracts the random stream so both math/rand and the project's
// deterministic Monte-Carlo RNG can be used.
type Sampler interface {
	Sample(src Source) float64
}

// Source is the random-number source consumed by Sample methods.
// *math/rand.Rand satisfies it.
type Source interface {
	Float64() float64
	NormFloat64() float64
}

// Std returns the standard deviation of d.
func Std(d Dist) float64 { return math.Sqrt(d.Variance()) }

// Quantile numerically inverts d.CDF. p must be in (0,1).
//
// The search bracket is derived from the distribution's mean and standard
// deviation and widened geometrically until it encloses p. Inside it a
// Newton solve starts from the Gaussian guess m + sΦ⁻¹(p). It works on
// log F (p < ½) or log(1 − F) (p ≥ ½), which stay near-linear in the
// tails where F itself flattens. Every CDF value narrows the bracket,
// and a step that leaves it is replaced by bisection. The solve stops
// once a Newton step is within 1e-13·(1+|x|), tested before the bracket
// guard so that a converged point is not bisected further, or once the
// bracket is that narrow. The m ± 8s ends are taken on trust and only
// checked, and widened, if the bracket closes on one that no CDF value
// has confirmed; a grid quantile of an LVF² model then costs about four
// CDF evaluations.
func Quantile(d Dist, p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return math.NaN()
	}
	m, s := d.Mean(), Std(d)
	if s <= 0 || math.IsNaN(s) {
		return m
	}
	lo, hi := m-8*s, m+8*s
	loChecked, hiChecked := false, false
	x := m + s*StdNormQuantile(p)
	if !(x > lo && x < hi) {
		x = 0.5 * (lo + hi)
	}
	for i := 0; i < 200; i++ {
		if hi-lo <= 1e-13*(1+math.Abs(lo)) {
			lo0, hi0 := lo, hi
			for j := 0; !loChecked && d.CDF(lo) > p && j < 64; j++ {
				lo -= 8 * s
			}
			for j := 0; !hiChecked && d.CDF(hi) < p && j < 64; j++ {
				hi += 8 * s
			}
			loChecked, hiChecked = true, true
			if lo == lo0 && hi == hi0 {
				break
			}
			x = 0.5 * (lo + hi)
		}
		c := d.CDF(x)
		if c < p {
			lo, loChecked = x, true
		} else {
			hi, hiChecked = x, true
		}
		var step float64
		if p < 0.5 {
			step = math.Log1p((c-p)/p) * c / d.PDF(x)
		} else {
			step = -math.Log1p((p-c)/(1-p)) * (1 - c) / d.PDF(x)
		}
		next := x - step
		if math.Abs(step) <= 1e-13*(1+math.Abs(x)) {
			return next
		}
		if !(next > lo && next < hi) {
			next = 0.5 * (lo + hi)
		}
		x = next
	}
	return 0.5 * (lo + hi)
}

// Interval returns P(a < X <= b) for the distribution d.
func Interval(d Dist, a, b float64) float64 {
	if b < a {
		return 0
	}
	p := d.CDF(b) - d.CDF(a)
	if p < 0 {
		return 0
	}
	return p
}

// CentralMoment integrates (x-mean)^k d.PDF(x) dx numerically over
// mean ± 12 standard deviations using composite Gauss-Legendre quadrature.
// It is used by distributions whose higher moments lack closed forms.
func CentralMoment(d Dist, k int) float64 {
	m, s := d.Mean(), Std(d)
	if s == 0 {
		return 0
	}
	lo, hi := m-12*s, m+12*s
	return integrate(func(x float64) float64 {
		return math.Pow(x-m, float64(k)) * d.PDF(x)
	}, lo, hi, 24)
}

// RawMoment integrates x^k d.PDF(x) dx numerically (support truncated to
// mean ± 12 standard deviations, floored at lo if floorAtZero).
func RawMoment(d Dist, k int, floorAtZero bool) float64 {
	m, s := d.Mean(), Std(d)
	lo, hi := m-12*s, m+12*s
	if floorAtZero && lo < 0 {
		lo = 0
	}
	return integrate(func(x float64) float64 {
		return math.Pow(x, float64(k)) * d.PDF(x)
	}, lo, hi, 24)
}
