package mc

import "sync"

// MatrixPool recycles Matrix buffers across goroutines, for consumers of
// the Into sampler variants that draw sample blocks on demand, such as
// the spice characterisation workers. The zero value is ready.
type MatrixPool struct{ p sync.Pool }

// Get returns a Matrix, allocating one only when the pool is empty.
func (mp *MatrixPool) Get() *Matrix {
	if m, ok := mp.p.Get().(*Matrix); ok {
		return m
	}
	return new(Matrix)
}

// Put returns a Matrix to the pool. The caller must not touch m (or rows
// returned from it) afterwards.
func (mp *MatrixPool) Put(m *Matrix) { mp.p.Put(m) }

// Matrix is a reusable n×d sample buffer for the Into sampler variants.
// The row slices and their flat backing array, the per-dimension
// permutation and the Sobol shift vector are all recycled across calls, so
// a characterisation worker that draws thousands of sample blocks performs
// no steady-state allocations. The zero value is ready; a Matrix is not
// safe for concurrent use.
type Matrix struct {
	rows  [][]float64
	flat  []float64
	perm  []int
	shift []float64
	// Cached shape of rows: a grid sweep draws hundreds of same-shaped
	// blocks through one matrix, so re-slicing n row headers per block is
	// planned once and skipped on every subsequent call.
	shapedN, shapedD int
}

// Rows returns the matrix shaped to n rows of d columns, reusing the
// backing storage when it is large enough. Row contents are unspecified on
// return (callers overwrite every cell). Rows are capacity-capped, so
// appending to one cannot clobber its neighbour. Repeated calls with the
// same shape return the cached row headers without re-slicing.
func (m *Matrix) Rows(n, d int) [][]float64 {
	if n <= 0 || d <= 0 {
		return nil
	}
	if n == m.shapedN && d == m.shapedD {
		return m.rows
	}
	if cap(m.flat) < n*d {
		m.flat = make([]float64, n*d)
	}
	if cap(m.rows) < n {
		m.rows = make([][]float64, n)
	}
	m.rows = m.rows[:n]
	flat := m.flat[:n*d]
	for i := range m.rows {
		m.rows[i], flat = flat[:d:d], flat[d:]
	}
	m.shapedN, m.shapedD = n, d
	return m.rows
}

// permBuf returns the permutation scratch sized to n.
func (m *Matrix) permBuf(n int) []int {
	if cap(m.perm) < n {
		m.perm = make([]int, n)
	}
	return m.perm[:n]
}

// shiftBuf returns the shift scratch sized to d.
func (m *Matrix) shiftBuf(d int) []float64 {
	if cap(m.shift) < d {
		m.shift = make([]float64, d)
	}
	return m.shift[:d]
}
