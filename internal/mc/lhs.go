package mc

import "lvf2/internal/stats"

// LatinHypercube generates n stratified samples in d dimensions on the
// unit hypercube: each dimension is divided into n equal strata, each
// stratum receives exactly one point at a uniformly random offset, and the
// strata are randomly permuted per dimension. Returns an n×d matrix.
//
// LHS is the paper's sampling scheme for the SPICE Monte Carlo runs; its
// stratification lowers the variance of bin-probability estimates compared
// to IID sampling at the same budget (see BenchmarkAblationLHS).
func LatinHypercube(rng *RNG, n, d int) [][]float64 {
	return LatinHypercubeInto(rng, n, d, &Matrix{})
}

// LatinHypercubeInto is LatinHypercube writing into a reusable matrix. The
// returned rows alias m and remain valid until its next use; the variate
// stream matches LatinHypercube exactly.
func LatinHypercubeInto(rng *RNG, n, d int, m *Matrix) [][]float64 {
	if n <= 0 || d <= 0 {
		return nil
	}
	out := m.Rows(n, d)
	perm := m.permBuf(n)
	for j := 0; j < d; j++ {
		rng.PermInto(perm)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			if u >= 1 {
				u = 1 - 1e-16
			}
			out[i][j] = u
		}
	}
	return out
}

// GaussianLHS maps LatinHypercube points through the standard normal
// quantile, producing n stratified N(0,1)^d process-parameter vectors.
func GaussianLHS(rng *RNG, n, d int) [][]float64 {
	return GaussianLHSInto(rng, n, d, &Matrix{})
}

// GaussianLHSInto is GaussianLHS writing into a reusable matrix.
func GaussianLHSInto(rng *RNG, n, d int, m *Matrix) [][]float64 {
	return ToGaussian(LatinHypercubeInto(rng, n, d, m))
}

// ToGaussian maps uniform rows in place through the standard normal
// quantile and returns them. Each cell is transformed independently, so
// disjoint row ranges may be transformed concurrently and the result is
// bit-identical to one pass over all rows.
func ToGaussian(rows [][]float64) [][]float64 {
	for _, row := range rows {
		for j, u := range row {
			row[j] = stats.StdNormQuantile(clampOpen(u))
		}
	}
	return rows
}

// GaussianIID returns n IID N(0,1)^d vectors, the non-stratified baseline.
func GaussianIID(rng *RNG, n, d int) [][]float64 {
	return GaussianIIDInto(rng, n, d, &Matrix{})
}

// GaussianIIDInto is GaussianIID writing into a reusable matrix.
func GaussianIIDInto(rng *RNG, n, d int, m *Matrix) [][]float64 {
	if n <= 0 || d <= 0 {
		return nil
	}
	out := m.Rows(n, d)
	for _, row := range out {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return out
}

func clampOpen(u float64) float64 {
	const eps = 1e-15
	if u < eps {
		return eps
	}
	if u > 1-eps {
		return 1 - eps
	}
	return u
}
