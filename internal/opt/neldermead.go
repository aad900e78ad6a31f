// Package opt provides the derivative-free optimiser used by the
// model-fitting code: a Nelder–Mead simplex for multivariate minimisation
// (LESN and LN/LSN moment matching, the optional 7-parameter LVF² MLE
// polish). The ECM M-step's 3-parameter weighted skew-normal MLE does not
// use it: its derivatives are analytic, and internal/fit solves it by
// Newton's method.
package opt

import (
	"math"
)

// NelderMeadOptions configures the simplex search.
type NelderMeadOptions struct {
	// MaxIter bounds the number of iterations (default 400·dim).
	MaxIter int
	// TolF stops when the simplex function spread falls below it
	// (default 1e-10).
	TolF float64
	// TolX stops when the simplex diameter falls below it (default 1e-10).
	TolX float64
	// Step is the initial simplex displacement per coordinate
	// (default 5% of |x| or 0.05 for zero coordinates).
	Step float64
}

// Workspace holds the scratch buffers of one Nelder–Mead run so repeated
// searches of the same dimensionality (the EM/ECM fitting loops) perform
// no steady-state heap allocations. A Workspace is not safe for
// concurrent use; the zero value is ready.
type Workspace struct {
	dim                        int
	pts                        [][]float64
	vals                       []float64
	centroid, xr, xe, xc, best []float64
}

// grow (re)sizes the buffers for dimension n, reusing them when possible.
func (w *Workspace) grow(n int) {
	if w.dim == n && w.pts != nil {
		return
	}
	w.dim = n
	w.pts = make([][]float64, n+1)
	flat := make([]float64, (n+1)*n+5*n)
	for i := range w.pts {
		w.pts[i], flat = flat[:n:n], flat[n:]
	}
	w.centroid, flat = flat[:n:n], flat[n:]
	w.xr, flat = flat[:n:n], flat[n:]
	w.xe, flat = flat[:n:n], flat[n:]
	w.xc, flat = flat[:n:n], flat[n:]
	w.best = flat[:n:n]
	w.vals = make([]float64, n+1)
}

// NelderMead minimises f starting from x0 and returns the best point and
// value. f may return +Inf to reject infeasible points.
func NelderMead(f func([]float64) float64, x0 []float64, o NelderMeadOptions) ([]float64, float64) {
	var ws Workspace
	return NelderMeadWs(f, x0, o, &ws)
}

// NelderMeadWs is NelderMead reusing the given workspace buffers. The
// returned best point aliases the workspace and is valid until the next
// call with the same workspace.
func NelderMeadWs(f func([]float64) float64, x0 []float64, o NelderMeadOptions, ws *Workspace) ([]float64, float64) {
	n := len(x0)
	if n == 0 {
		return nil, f(nil)
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 400 * n
	}
	if o.TolF <= 0 {
		o.TolF = 1e-10
	}
	if o.TolX <= 0 {
		o.TolX = 1e-10
	}
	if o.Step <= 0 {
		o.Step = 0.05
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	if ws == nil {
		ws = &Workspace{}
	}
	ws.grow(n)

	// Initial simplex: x0 plus per-coordinate displacements.
	pts := ws.pts
	vals := ws.vals
	for i := range pts {
		p := pts[i]
		copy(p, x0)
		if i > 0 {
			j := i - 1
			d := o.Step * math.Abs(p[j])
			if d == 0 {
				d = o.Step
			}
			p[j] += d
		}
		vals[i] = f(p)
	}

	order := func() {
		// Insertion sort: the simplex is nearly sorted between iterations.
		for i := 1; i <= n; i++ {
			p, v := pts[i], vals[i]
			j := i - 1
			for j >= 0 && vals[j] > v {
				pts[j+1], vals[j+1] = pts[j], vals[j]
				j--
			}
			pts[j+1], vals[j+1] = p, v
		}
	}
	order()

	centroid, xr, xe, xc := ws.centroid, ws.xr, ws.xe, ws.xc

	for iter := 0; iter < o.MaxIter; iter++ {
		// Converged only when both the value spread and the simplex
		// diameter are small: points straddling a minimum can have equal
		// values while still being far from it.
		var diam float64
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				if d := math.Abs(pts[i][j] - pts[0][j]); d > diam {
					diam = d
				}
			}
		}
		if math.Abs(vals[n]-vals[0]) < o.TolF && diam < o.TolX {
			break
		}

		// Centroid of all but the worst point.
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += pts[i][j]
			}
			centroid[j] = s / float64(n)
		}

		// Reflection.
		for j := 0; j < n; j++ {
			xr[j] = centroid[j] + alpha*(centroid[j]-pts[n][j])
		}
		fr := f(xr)
		switch {
		case fr < vals[0]:
			// Expansion.
			for j := 0; j < n; j++ {
				xe[j] = centroid[j] + gamma*(xr[j]-centroid[j])
			}
			if fe := f(xe); fe < fr {
				copy(pts[n], xe)
				vals[n] = fe
			} else {
				copy(pts[n], xr)
				vals[n] = fr
			}
		case fr < vals[n-1]:
			copy(pts[n], xr)
			vals[n] = fr
		default:
			// Contraction (outside if fr better than worst, else inside).
			if fr < vals[n] {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] + rho*(xr[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					xc[j] = centroid[j] - rho*(centroid[j]-pts[n][j])
				}
			}
			if fc := f(xc); fc < math.Min(fr, vals[n]) {
				copy(pts[n], xc)
				vals[n] = fc
			} else {
				// Shrink towards the best point.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						pts[i][j] = pts[0][j] + sigma*(pts[i][j]-pts[0][j])
					}
					vals[i] = f(pts[i])
				}
			}
		}
		order()
	}
	copy(ws.best, pts[0])
	return ws.best, vals[0]
}
