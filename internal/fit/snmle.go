package fit

import (
	"math"

	"lvf2/internal/stats"
)

// maxObjPoints caps the weighted-MLE objective subsample. The optimum of
// the subsampled likelihood is statistically indistinguishable at this
// precision (parameter noise ~σ/√maxObjPoints, far below the metric
// resolution), and every ECM candidate is accepted only after re-scoring
// on the full data.
const maxObjPoints = 2048

// The feasible box of the M-step in (ξ, log ω, α); the objective is +Inf
// outside it.
const (
	mleMaxAlpha    = 80
	mleMaxLogOmega = 50
	mleMinLogOmega = -80
)

const (
	// newtonMaxIter bounds one Newton solve. A warm-started solve
	// typically converges in 3–8 iterations.
	newtonMaxIter = 50
	// newtonTol is the stopping threshold on half the squared Newton
	// decrement (the predicted objective decrease), per unit of total
	// weight: ~1e-10 log-likelihood per point, far below sampling noise.
	newtonTol = 1e-10
	// armijoC is the sufficient-decrease constant of the line search.
	armijoC = 1e-4
	// maxHalvings bounds the backtracking of one line search.
	maxHalvings = 40
	// alphaTrap is the |α| below which a solve may have stopped at the
	// stationary point every SN log-likelihood has at α = 0; such a
	// solve is restarted from both skewed sides.
	alphaTrap = 0.05
)

// weightedSNMLE maximises Σ wᵢ log f_SN(xᵢ) over (ξ, log ω, α) from a warm
// start by a safeguarded Newton solve. For large samples the objective is
// evaluated on a strided subsample; points with negligible weight are
// dropped at build time so every pass is over contributing points only.
//
// In direct parameters the SN log-likelihood always has a stationary
// point at α = 0 (there the α-score is √(2/π)·ω times the ξ-score), and
// Newton converges to it from a start at or across α = 0. A solve that
// ends at |α| < alphaTrap is therefore restarted from the two points with
// α = ±max(2, |α₀|) that keep its mean and standard deviation, and the
// lowest objective wins. A start outside the feasible box is returned
// unchanged.
func weightedSNMLE(xs, ws []float64, init stats.SkewNormal, scr *mleScratch) stats.SkewNormal {
	if init.Omega <= 0 {
		return init
	}
	if scr == nil {
		scr = &mleScratch{}
	}
	stride := 1
	if len(xs) > maxObjPoints {
		stride = (len(xs) + maxObjPoints - 1) / maxObjPoints
	}
	scr.subX = scr.subX[:0]
	scr.subW = scr.subW[:0]
	var wsum float64
	for i := 0; i < len(xs); i += stride {
		if w := ws[i]; w > 1e-12 {
			scr.subX = append(scr.subX, xs[i])
			scr.subW = append(scr.subW, w)
			wsum += w
		}
	}
	if len(scr.subX) == 0 {
		return init
	}
	scr.wsum = wsum
	best, f := scr.newton([3]float64{init.Xi, math.Log(init.Omega), init.Alpha})
	if !(f < math.Inf(1)) {
		return init
	}
	if math.Abs(best[2]) < alphaTrap {
		c := stats.SkewNormal{Xi: best[0], Omega: math.Exp(best[1]), Alpha: best[2]}
		mean, sd, _ := c.Moments()
		a := math.Max(2, math.Abs(init.Alpha))
		for _, alpha := range [2]float64{-a, a} {
			delta := alpha / math.Sqrt(1+alpha*alpha)
			omega := sd / math.Sqrt(1-2/math.Pi*delta*delta)
			xi := mean - omega*delta*math.Sqrt(2/math.Pi)
			if p, fp := scr.newton([3]float64{xi, math.Log(omega), alpha}); fp < f {
				best, f = p, fp
			}
		}
	}
	return stats.SkewNormal{Xi: best[0], Omega: math.Exp(best[1]), Alpha: best[2]}
}

// mleScratch is the per-component scratch of weightedSNMLE: the
// weight-filtered subsample and its total weight.
type mleScratch struct {
	subX, subW []float64
	wsum       float64
}

// snDerivs is the gradient and Hessian of the M-step objective in the
// local coordinates (δξ/ω, δ log ω, δα) at the evaluation point: measuring
// ξ in units of the current ω makes every entry O(W), so one damping
// scale serves all three.
type snDerivs struct {
	g [3]float64
	h [3][3]float64
}

// eval returns the negative weighted log-likelihood over the retained
// subsample at p = (ξ, log ω, α) — with z = (x−ξ)/ω, −log f = log ω +
// z²/2 − log Φ(αz) + const — and fills d with its derivatives. Outside the
// feasible box it returns +Inf and leaves d untouched.
//
// With u = αz and ζ = φ(u)/Φ(u), ζ′ = −ζ(u + ζ), one point contributes
// gz = z − αζ, gzz = 1 − α²ζ′ and gza = −ζ − uζ′ (the partials of its
// term in z and α); ∂z/∂(ξ/ω) = −1 and ∂z/∂log ω = −z give the rest.
// Where Φ(u) is floored at 1e-300 the term is flat in u, so ζ = ζ′ = 0.
func (s *mleScratch) eval(p [3]float64, d *snDerivs) float64 {
	xi, logOmega, alpha := p[0], p[1], p[2]
	if math.Abs(alpha) > mleMaxAlpha || logOmega > mleMaxLogOmega || logOmega < mleMinLogOmega {
		return math.Inf(1)
	}
	invOmega := math.Exp(-logOmega)
	var sum, sgz, sgzZ, szZeta, sgzz, sgzzZ, sgzzZ2, sgza, sgzaZ, sz2dZeta float64
	subW := s.subW
	for i, x := range s.subX {
		w := subW[i]
		z := (x - xi) * invOmega
		u := alpha * z
		phi := stats.StdNormCDF(u)
		var zeta, dzeta float64
		if phi < 1e-300 {
			phi = 1e-300
		} else {
			zeta = stats.StdNormPDF(u) / phi
			dzeta = -zeta * (u + zeta)
		}
		sum += w * (0.5*z*z - math.Log(phi))
		gz := w * (z - alpha*zeta)
		gzz := w * (1 - alpha*alpha*dzeta)
		gza := w * (-zeta - u*dzeta)
		sgz += gz
		sgzZ += gz * z
		szZeta += w * z * zeta
		sgzz += gzz
		sgzzZ += gzz * z
		sgzzZ2 += gzz * z * z
		sgza += gza
		sgzaZ += gza * z
		sz2dZeta += w * z * z * dzeta
	}
	d.g = [3]float64{-sgz, s.wsum - sgzZ, -szZeta}
	hxe := sgzzZ + sgz
	hxa := -sgza
	hea := -sgzaZ
	d.h = [3][3]float64{
		{sgzz, hxe, hxa},
		{hxe, sgzzZ2 + sgzZ, hea},
		{hxa, hea, -sz2dZeta},
	}
	return sum + s.wsum*logOmega
}

// newton minimises the M-step objective from p by Newton's method: each
// iteration solves the (damped, if not positive definite) Newton system
// by Cholesky over the coordinates not held at the box by the gradient,
// projects the step into the box, and backtracks until the Armijo
// condition holds. It stops when half the squared Newton decrement falls
// below newtonTol·(1+W), when no step decreases the objective, or after
// newtonMaxIter iterations, and returns the last accepted point. A start
// outside the box returns +Inf.
func (s *mleScratch) newton(p [3]float64) ([3]float64, float64) {
	var d, dt snDerivs
	f := s.eval(p, &d)
	if !(f < math.Inf(1)) {
		return p, math.Inf(1)
	}
	tol := newtonTol * (1 + s.wsum)
	for it := 0; it < newtonMaxIter; it++ {
		step, ok := newtonStep(p, &d, s.wsum)
		if !ok {
			break
		}
		var dec float64
		for i := range step {
			dec -= d.g[i] * step[i]
		}
		if dec <= 2*tol {
			break
		}
		omega := math.Exp(p[1])
		accepted := false
		for t, k := 1.0, 0; k < maxHalvings; t, k = t/2, k+1 {
			q := [3]float64{
				p[0] + t*step[0]*omega,
				math.Min(math.Max(p[1]+t*step[1], mleMinLogOmega), mleMaxLogOmega),
				math.Min(math.Max(p[2]+t*step[2], -mleMaxAlpha), mleMaxAlpha),
			}
			slope := d.g[0]*(q[0]-p[0])/omega + d.g[1]*(q[1]-p[1]) + d.g[2]*(q[2]-p[2])
			if !(slope < 0) {
				continue
			}
			if fq := s.eval(q, &dt); fq <= f+armijoC*slope {
				p, f, d = q, fq, dt
				accepted = true
				break
			}
		}
		if !accepted {
			break
		}
	}
	return p, f
}

// newtonStep solves H·step = −g in local coordinates. A coordinate at a
// box face whose descent direction points out of the box is held fixed.
// When the Hessian is not positive definite, the diagonal is damped by a
// growing multiple of (1+W) until the Cholesky factorisation succeeds.
func newtonStep(p [3]float64, d *snDerivs, wsum float64) ([3]float64, bool) {
	var fixed [3]bool
	fixed[1] = (p[1] <= mleMinLogOmega && d.g[1] > 0) || (p[1] >= mleMaxLogOmega && d.g[1] < 0)
	fixed[2] = (p[2] <= -mleMaxAlpha && d.g[2] > 0) || (p[2] >= mleMaxAlpha && d.g[2] < 0)
	h, g := d.h, d.g
	for i := range fixed {
		if !fixed[i] {
			continue
		}
		for j := range h {
			h[i][j], h[j][i] = 0, 0
		}
		h[i][i], g[i] = 1, 0
	}
	// 30 tenfold growths take mu to 1e21·(1+W), past any Hessian entry.
	mu := 0.0
	for try := 0; try < 30; try++ {
		if l, ok := cholesky3(h, mu); ok {
			// Forward then back substitution with L·Lᵀ.
			var y, x [3]float64
			for i := 0; i < 3; i++ {
				v := -g[i]
				for j := 0; j < i; j++ {
					v -= l[i][j] * y[j]
				}
				y[i] = v / l[i][i]
			}
			for i := 2; i >= 0; i-- {
				v := y[i]
				for j := i + 1; j < 3; j++ {
					v -= l[j][i] * x[j]
				}
				x[i] = v / l[i][i]
			}
			return x, true
		}
		if mu == 0 {
			mu = 1e-8 * (1 + wsum)
		} else {
			mu *= 10
		}
	}
	return [3]float64{}, false
}

// cholesky3 factors h + mu·I = L·Lᵀ, reporting false when the matrix is
// not (numerically) positive definite.
func cholesky3(h [3][3]float64, mu float64) ([3][3]float64, bool) {
	var l [3][3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j <= i; j++ {
			v := h[i][j]
			if i == j {
				v += mu
			}
			for k := 0; k < j; k++ {
				v -= l[i][k] * l[j][k]
			}
			if i == j {
				if !(v > 0) {
					return l, false
				}
				l[i][i] = math.Sqrt(v)
			} else {
				l[i][j] = v / l[j][j]
			}
		}
	}
	return l, true
}
