package stats

import "math"

const (
	invSqrt2Pi  = 0.3989422804014327 // 1/sqrt(2*pi)
	sqrt2       = 1.4142135623730951
	sqrt2OverPi = 0.7978845608028654 // sqrt(2/pi)
)

// StdNormPDF is the standard normal density φ(x).
func StdNormPDF(x float64) float64 {
	return invSqrt2Pi * math.Exp(-0.5*x*x)
}

// StdNormCDF is the standard normal cumulative Φ(x).
func StdNormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/sqrt2)
}

// StdNormQuantile inverts Φ by Wichura's algorithm AS 241 (PPND16,
// Applied Statistics 37(3), 1988): p − ½ times one degree-7 rational in
// 0.180625 − (p − ½)² for |p − ½| ≤ 0.425, otherwise one of two degree-7
// rationals in √(−log r), r = min(p, 1 − p), split at √(−log r) = 5.
// The centre calls nothing transcendental and no branch refines the
// result. Against a 256-bit reference the error is at most
// 1e-15·max(1, |Φ⁻¹(p)|) for p in [1e-300, 1 − 2⁻⁵³], and
// Φ⁻¹(1 − p) = −Φ⁻¹(p) bit for bit wherever 1 − p is exact
// (TestStdNormQuantileOracle).
func StdNormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return math.NaN()
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		r := 0.180625 - q*q
		return q * (((((((2.5090809287301226727e3*r+3.3430575583588128105e4)*r+
			6.7265770927008700853e4)*r+4.5921953931549871457e4)*r+
			1.3731693765509461125e4)*r+1.9715909503065514427e3)*r+
			1.3314166789178437745e2)*r + 3.3871328727963666080) /
			(((((((5.2264952788528545610e3*r+2.8729085735721942674e4)*r+
				3.9307895800092710610e4)*r+2.1213794301586595867e4)*r+
				5.3941960214247511077e3)*r+6.8718700749205790830e2)*r+
				4.2313330701600911252e1)*r + 1)
	}
	r := p // 1 − p is exact for p ≥ ½
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var x float64
	if r <= 5 {
		r -= 1.6
		x = (((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+1.27045825245236838258)*r+
			3.64784832476320460504)*r+5.76949722146069140550)*r+
			4.63033784615654529590)*r + 1.42343711074968357734) /
			(((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
				1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
				6.89767334985100004550e-1)*r+1.67638483018380384940)*r+
				2.05319162663775882187)*r + 1)
	} else {
		r -= 5
		x = (((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
			1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
			2.96560571828504891230e-1)*r+1.78482653991729133580)*r+
			5.46378491116411436990)*r + 6.65790464350110377720) /
			(((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
				1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
				1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
				5.99832206555887937690e-1)*r + 1)
	}
	if q < 0 {
		return -x
	}
	return x
}

// Normal is the Gaussian distribution N(mu, sigma²).
type Normal struct {
	Mu    float64
	Sigma float64
}

// PDF returns the Gaussian density at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x == n.Mu {
			return math.Inf(1)
		}
		return 0
	}
	z := (x - n.Mu) / n.Sigma
	return StdNormPDF(z) / n.Sigma
}

// CDF returns P(X <= x).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma <= 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return StdNormCDF((x - n.Mu) / n.Sigma)
}

// Mean returns mu.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns sigma².
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// Skewness of a Gaussian is zero.
func (n Normal) Skewness() float64 { return 0 }

// ExcessKurtosis of a Gaussian is zero.
func (n Normal) ExcessKurtosis() float64 { return 0 }

// Quantile inverts the CDF in closed form.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*StdNormQuantile(p)
}

// Sample draws one variate.
func (n Normal) Sample(src Source) float64 {
	return n.Mu + n.Sigma*src.NormFloat64()
}
