package mc

// Sobol quasi-Monte-Carlo sequence, an alternative to LHS for the
// characterisation sampler. The implementation uses the classic
// direction numbers from Joe & Kuo for the first dimensions handled here
// (the process-parameter space is 6-dimensional) with Gray-code ordering.
//
// QMC converges as O(log^d(n)/n) for smooth integrands versus O(1/√n)
// for plain MC, which matters when characterising thousands of grid
// points; BenchmarkAblationLHS-style comparisons can swap samplers.

// sobolDim holds primitive polynomial degree s, coefficient a, and the
// initial direction numbers m for one dimension (Joe & Kuo tables).
type sobolDim struct {
	s int
	a uint32
	m []uint32
}

// The first 7 dimensions after the van-der-Corput dimension (which needs
// no table) — enough for NumParams with one to spare.
var sobolDims = []sobolDim{
	{s: 1, a: 0, m: []uint32{1}},
	{s: 2, a: 1, m: []uint32{1, 3}},
	{s: 3, a: 1, m: []uint32{1, 3, 1}},
	{s: 3, a: 2, m: []uint32{1, 1, 1}},
	{s: 4, a: 1, m: []uint32{1, 1, 3, 3}},
	{s: 4, a: 4, m: []uint32{1, 3, 5, 13}},
	{s: 5, a: 2, m: []uint32{1, 1, 5, 5, 17}},
}

const sobolBits = 31

// Sobol is a d-dimensional Sobol sequence generator.
type Sobol struct {
	d     int
	v     [][]uint32 // direction vectors per dimension
	x     []uint32   // current state per dimension
	count uint32
}

// NewSobol builds a generator for d dimensions (1 ≤ d ≤ 8).
func NewSobol(d int) *Sobol {
	if d < 1 {
		d = 1
	}
	if d > len(sobolDims)+1 {
		d = len(sobolDims) + 1
	}
	s := &Sobol{d: d, x: make([]uint32, d)}
	s.v = make([][]uint32, d)
	// Dimension 0: van der Corput — v[k] = 2^(bits-1-k).
	s.v[0] = make([]uint32, sobolBits)
	for k := 0; k < sobolBits; k++ {
		s.v[0][k] = 1 << (sobolBits - 1 - k)
	}
	for j := 1; j < d; j++ {
		dim := sobolDims[j-1]
		v := make([]uint32, sobolBits)
		for k := 0; k < dim.s && k < sobolBits; k++ {
			v[k] = dim.m[k] << (sobolBits - 1 - k)
		}
		for k := dim.s; k < sobolBits; k++ {
			v[k] = v[k-dim.s] ^ (v[k-dim.s] >> dim.s)
			for l := 1; l < dim.s; l++ {
				if (dim.a>>(dim.s-1-l))&1 == 1 {
					v[k] ^= v[k-l]
				}
			}
		}
		s.v[j] = v
	}
	return s
}

// Next returns the next point in [0,1)^d (Gray-code order; the first
// returned point is the sequence's index-1 point, skipping the origin).
func (s *Sobol) Next() []float64 {
	return s.NextInto(make([]float64, s.d))
}

// NextInto writes the next point into dst (which must have length ≥ d)
// and returns dst[:d].
func (s *Sobol) NextInto(dst []float64) []float64 {
	// Position of the lowest zero bit of count.
	c := s.count
	k := 0
	for c&1 == 1 {
		c >>= 1
		k++
	}
	if k >= sobolBits {
		k = sobolBits - 1
	}
	dst = dst[:s.d]
	for j := 0; j < s.d; j++ {
		s.x[j] ^= s.v[j][k]
		dst[j] = float64(s.x[j]) / (1 << sobolBits)
	}
	s.count++
	return dst
}

// Dim returns the (clamped) dimensionality of the sequence.
func (s *Sobol) Dim() int { return s.d }

// SobolPoints returns the first n points of a d-dimensional sequence.
func SobolPoints(n, d int) [][]float64 {
	return SobolPointsInto(n, d, &Matrix{})
}

// SobolPointsInto is SobolPoints writing into a reusable matrix. The rows
// are Dim() wide (d clamped to the supported range).
func SobolPointsInto(n, d int, m *Matrix) [][]float64 {
	s := NewSobol(d)
	if n <= 0 {
		return nil
	}
	out := m.Rows(n, s.d)
	for i := range out {
		s.NextInto(out[i])
	}
	return out
}

// GaussianSobol maps a scrambled-shifted Sobol sequence through the normal
// quantile: n quasi-random N(0,1)^d vectors. The rng supplies a random
// Cranley–Patterson rotation so repeated calls give independent unbiased
// estimates (plain Sobol is deterministic).
func GaussianSobol(rng *RNG, n, d int) [][]float64 {
	return GaussianSobolInto(rng, n, d, &Matrix{})
}

// GaussianSobolInto is GaussianSobol writing into a reusable matrix,
// consuming the same rng stream (the shift is drawn before the points).
func GaussianSobolInto(rng *RNG, n, d int, m *Matrix) [][]float64 {
	shift := m.shiftBuf(d)
	for j := range shift {
		shift[j] = rng.Float64()
	}
	pts := SobolPointsInto(n, d, m)
	for _, row := range pts {
		for j := range row {
			row[j] += shift[j]
			if row[j] >= 1 {
				row[j] -= 1
			}
		}
	}
	return ToGaussian(pts)
}
