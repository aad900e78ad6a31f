package stats

import "math"

// SampleMoments holds the first four sample moments of a data set.
type SampleMoments struct {
	N        int
	Mean     float64
	Variance float64 // population (1/N) variance
	Skewness float64 // third standardised moment
	Kurtosis float64 // fourth standardised moment (not excess)
}

// Std returns the standard deviation.
func (s SampleMoments) Std() float64 { return math.Sqrt(s.Variance) }

// ExcessKurtosis returns kurtosis − 3.
func (s SampleMoments) ExcessKurtosis() float64 { return s.Kurtosis - 3 }

// Moments computes the first four sample moments of xs in a single pass
// over centred data (two passes total: mean first for numerical stability).
func Moments(xs []float64) SampleMoments {
	n := len(xs)
	if n == 0 {
		return SampleMoments{}
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(n)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	fn := float64(n)
	m2 /= fn
	m3 /= fn
	m4 /= fn
	sm := SampleMoments{N: n, Mean: mean, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// WeightedMoments computes weighted sample moments, the workhorse of the
// method-of-moments M-step in the LVF² EM algorithm (responsibilities are
// the weights). Weights need not be normalised.
func WeightedMoments(xs, ws []float64) SampleMoments {
	if len(xs) != len(ws) || len(xs) == 0 {
		return SampleMoments{}
	}
	var wsum, mean float64
	for i, x := range xs {
		wsum += ws[i]
		mean += ws[i] * x
	}
	if wsum <= 0 {
		return SampleMoments{}
	}
	mean /= wsum
	var m2, m3, m4 float64
	for i, x := range xs {
		d := x - mean
		d2 := d * d
		m2 += ws[i] * d2
		m3 += ws[i] * d2 * d
		m4 += ws[i] * d2 * d2
	}
	m2 /= wsum
	m3 /= wsum
	m4 /= wsum
	sm := SampleMoments{N: len(xs), Mean: mean, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// MomentAccumulator accumulates weighted power sums of pivot-shifted data
// in a single pass, so an EM E-step can compute both components' moments
// while it computes the responsibilities, without materialising weight
// arrays. Choose a pivot near the data mean to keep the shifted sums well
// conditioned (the EM loops use the overall sample mean).
type MomentAccumulator struct {
	Pivot              float64
	s0, s1, s2, s3, s4 float64
	n                  int
}

// Reset clears the accumulator and sets the pivot.
func (a *MomentAccumulator) Reset(pivot float64) {
	*a = MomentAccumulator{Pivot: pivot}
}

// Add accumulates one unit-weight observation.
func (a *MomentAccumulator) Add(x float64) { a.AddWeighted(x, 1) }

// AddWeighted accumulates one observation with weight w.
func (a *MomentAccumulator) AddWeighted(x, w float64) {
	y := x - a.Pivot
	wy := w * y
	wy2 := wy * y
	a.s0 += w
	a.s1 += wy
	a.s2 += wy2
	a.s3 += wy2 * y
	a.s4 += wy2 * y * y
	a.n++
}

// WeightSum returns the accumulated total weight.
func (a *MomentAccumulator) WeightSum() float64 { return a.s0 }

// Count returns the number of accumulated observations.
func (a *MomentAccumulator) Count() int { return a.n }

// Moments converts the shifted power sums to sample moments, matching the
// conventions of WeightedMoments (population variance, non-excess
// kurtosis, Kurtosis = 3 on zero variance).
func (a *MomentAccumulator) Moments() SampleMoments {
	if a.n == 0 || a.s0 <= 0 {
		return SampleMoments{}
	}
	m1 := a.s1 / a.s0
	r2 := a.s2 / a.s0
	r3 := a.s3 / a.s0
	r4 := a.s4 / a.s0
	m2 := r2 - m1*m1
	m3 := r3 - 3*m1*r2 + 2*m1*m1*m1
	m4 := r4 - 4*m1*r3 + 6*m1*m1*r2 - 3*m1*m1*m1*m1
	if m2 < 0 {
		m2 = 0
	}
	sm := SampleMoments{N: a.n, Mean: a.Pivot + m1, Variance: m2}
	if m2 > 0 {
		sm.Skewness = m3 / math.Pow(m2, 1.5)
		sm.Kurtosis = m4 / (m2 * m2)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// Cumulants4 converts moments to the first four cumulants
// (κ₁, κ₂, κ₃, κ₄). Cumulants of independent sums add.
func (s SampleMoments) Cumulants4() (k1, k2, k3, k4 float64) {
	k1 = s.Mean
	k2 = s.Variance
	sd3 := math.Pow(s.Variance, 1.5)
	k3 = s.Skewness * sd3
	k4 = (s.Kurtosis - 3) * s.Variance * s.Variance
	return
}

// MomentsFromCumulants is the inverse of Cumulants4.
func MomentsFromCumulants(k1, k2, k3, k4 float64) SampleMoments {
	sm := SampleMoments{Mean: k1, Variance: k2}
	if k2 > 0 {
		sm.Skewness = k3 / math.Pow(k2, 1.5)
		sm.Kurtosis = k4/(k2*k2) + 3
	} else {
		sm.Kurtosis = 3
	}
	return sm
}

// DistMoments evaluates the first four moments of an arbitrary Dist,
// using closed forms when the distribution exposes Skewness/ExcessKurtosis
// and numerical quadrature otherwise.
func DistMoments(d Dist) SampleMoments {
	sm := SampleMoments{Mean: d.Mean(), Variance: d.Variance()}
	type skewer interface{ Skewness() float64 }
	type kurter interface{ ExcessKurtosis() float64 }
	if sk, ok := d.(skewer); ok {
		sm.Skewness = sk.Skewness()
	} else if sm.Variance > 0 {
		sm.Skewness = CentralMoment(d, 3) / math.Pow(sm.Variance, 1.5)
	}
	if ku, ok := d.(kurter); ok {
		sm.Kurtosis = ku.ExcessKurtosis() + 3
	} else if sm.Variance > 0 {
		sm.Kurtosis = CentralMoment(d, 4) / (sm.Variance * sm.Variance)
	} else {
		sm.Kurtosis = 3
	}
	return sm
}
