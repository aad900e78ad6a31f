package stats

import "math"

// OwenT computes Owen's T function
//
//	T(h, a) = 1/(2π) ∫₀ᵃ exp(−h²(1+t²)/2)/(1+t²) dt,
//
// which appears in the skew-normal CDF: F_SN(z; α) = Φ(z) − 2·T(z, α).
// It is the one Owen's T kernel: SkewNormal.CDF, SkewNormal.CDFs and
// Mixture.CDFs all reach it.
//
// T is even in h and odd in a. For a > 1 the classical identity, written
// in complement form so that nothing cancels in the upper tail,
//
//	T(h, a) = ½Q(h) + ½Q(ah) − Q(h)Q(ah) − T(ah, 1/a),   Q(x) = Φ(−x),
//
// reduces the range to a ≤ 1, where owenTReduced integrates it. Against
// a math/big reference over |h| ≤ 8 the absolute error is below 2e-16
// and the relative error below 1e-12 (owen_oracle_test.go).
func OwenT(h, a float64) float64 {
	if a == 0 || math.IsNaN(h) || math.IsNaN(a) {
		return 0
	}
	h = math.Abs(h)
	if a < 0 {
		return -OwenT(h, -a)
	}
	if math.IsInf(a, 1) {
		return 0.5 * StdNormCDF(-h)
	}
	if a > 1 {
		ah := a * h
		qh, qah := StdNormCDF(-h), StdNormCDF(-ah)
		return 0.5*qh + 0.5*qah - qh*qah - owenTReduced(ah, 1/a)
	}
	return owenTReduced(h, a)
}

// owenTReduced integrates T(h, a) for h ≥ 0 and 0 < a ≤ 1. Past
// t = 9/h the factor exp(−h²t²/2) is below 3e-18, so the range stops at
// t_max = min(a, 9/h) and is split into ⌈h·t_max/2⌉ ≤ 5 sixteen-node
// Gauss–Legendre panels, each at most two standard deviations of that
// factor wide. A CDF point in the bulk costs 16–32 exponentials.
func owenTReduced(h, a float64) float64 {
	tmax, ht := a, h*a
	if ht > 9 {
		tmax, ht = 9/h, 9
	}
	panels := int(math.Ceil(0.5 * ht))
	if panels < 1 {
		panels = 1
	}
	hw := 0.5 * tmax / float64(panels) // panel half-width
	e := -0.5 * h * h
	var s float64
	for p := 0; p < panels; p++ {
		mid := float64(2*p+1) * hw
		for i, g := range glNodes16 {
			t := mid + hw*g
			c := 1 + t*t
			s += glWeights16[i] / c * math.Exp(e*c)
		}
	}
	return hw * s / (2 * math.Pi)
}
