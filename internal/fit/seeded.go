package fit

import (
	"math"
	"runtime"

	"lvf2/internal/stats"
)

// Warm-start fitting: characterisation sweeps fit thousands of LVF²
// distributions whose shapes vary smoothly across the slew–load grid, so
// the converged parameters of an already-fitted neighbour are an
// excellent starting basin for the next entry. A seeded fit skips the
// exploratory multi-start entirely — the dominant cost of a cold fit —
// and goes straight to the ECM refinement the cold path ends with,
// guarded by a validation gate that falls back to the full cold
// multi-start whenever the refined fit is not trustworthy.

// Seed carries the converged component parameters of a neighbouring
// LVF² fit. The seed is location/scale-free in effect: before refinement
// it is affinely transported so its mixture mean and standard deviation
// match the new sample's (the skew-normal family is closed under affine
// maps), so a neighbour whose nominal delay differs by an order of
// magnitude still seeds the right mixture shape.
type Seed struct {
	Lambda float64
	C1, C2 stats.SkewNormal
}

// SeedOf extracts the warm-start seed of a converged fit.
func SeedOf(r LVF2Result) Seed { return Seed{Lambda: r.Lambda, C1: r.C1, C2: r.C2} }

// WarmOutcome reports how a (possibly seeded) LVF² fit resolved. The
// zero value is WarmCold so unseeded results are labelled correctly by
// construction.
type WarmOutcome uint8

const (
	// WarmCold: no usable seed was supplied; the full multi-start ran.
	WarmCold WarmOutcome = iota
	// WarmHit: the seeded refinement passed the validation gate and the
	// multi-start was skipped.
	WarmHit
	// WarmRejected: the seeded refinement failed the gate (validation
	// breach or a score below the cold floor) and the full multi-start
	// ran as fallback.
	WarmRejected
)

// String names the outcome as in the lvf2_fit_warmstart_total label.
func (o WarmOutcome) String() string {
	switch o {
	case WarmHit:
		return "hit"
	case WarmRejected:
		return "rejected"
	default:
		return "cold"
	}
}

// warmECMRounds is the refinement budget of the warm path: the
// transported seed is already in the right basin, so a single ECM round
// — one responsibility pass plus one weighted-MLE polish per component —
// re-converges it. Each extra round costs as much as the first while the
// CDF no longer moves at metric resolution (the golden accuracy test
// pins this), and the rounds are what the warm path's speedup is made
// of: the cold multi-start it skips is only worth ~2–3 rounds of ECM.
const warmECMRounds = 1

// warmFloorSlack is the per-sample tolerance of the cold-floor gate, in
// nats. Real characterised delay distributions are often close enough to
// a single skew-normal that a freshly re-converged two-component fit
// scores a hair below the closed-form moment-matched floor without being
// wrong in any metric sense: empirically, warm fits within 0.01 nats per
// point of the floor stay within CDF RMSE ~0.012 of the corresponding
// cold fit — comfortably inside the 0.02 golden tolerance — while the
// genuinely wrong-basin cases sit several times further below. A strict
// floor (slack 0) rejects roughly half of all accurate warm fits on real
// arcs, and every rejection costs a wasted refinement plus the full cold
// multi-start, which is what the warm path exists to avoid.
const warmFloorSlack = 0.01

// warmSeedSkewCap pre-screens seeds whose component skewness is already
// near the SN moment-map clamp (|skewness| close to MaxSNSkewness): the
// weighted MLE refinement almost always walks such a component onto the
// rail, where ValidateResult rejects it — so attempting the warm fit
// just adds an ECM round on top of the inevitable cold fallback. Seeds
// past the cap skip straight to the multi-start instead.
const warmSeedSkewCap = 0.95 * stats.MaxSNSkewness

// FitLVF2Seeded fits LVF² warm-started from a neighbouring fit's
// converged parameters. Equivalent to FitLVF2 with Options.Seed set; the
// returned outcome reports whether the seed was accepted (WarmHit) or the
// cold multi-start ran as fallback (WarmRejected).
func FitLVF2Seeded(xs []float64, seed Seed, o Options) (LVF2Result, WarmOutcome, error) {
	o.Seed = &seed
	r, err := FitLVF2(xs, o)
	return r, r.Warm, err
}

// fitLVF2Seeded runs the warm path: transport the seed to the sample's
// location/scale, refine by ECM, and gate the result. A gate failure
// returns ok=false and the caller falls back to the cold multi-start.
// o.Seed has already been cleared by the caller.
func fitLVF2Seeded(xs []float64, seed Seed, o Options, fw *Workspace) (LVF2Result, bool) {
	n := len(xs)
	all := stats.Moments(xs)
	sdFloor := math.Max(all.Std()*1e-3, 1e-300)

	init, ok := transportSeed(seed, all, sdFloor)
	if !ok {
		return LVF2Result{}, false
	}
	r0 := LVF2Result{Lambda: init.lambda, C1: init.c1, C2: init.c2}
	r0.LogLik = mixLogLik(xs, r0.Lambda, r0.C1, r0.C2)
	if math.IsNaN(r0.LogLik) || math.IsInf(r0.LogLik, 1) {
		return LVF2Result{}, false
	}

	par := !o.Serial && n >= parallelMinN && runtime.GOMAXPROCS(0) > 1
	warm := ecmRefine(xs, r0, warmECMRounds, fw, par)
	warm.normalise()
	if o.Polish {
		warm = polishLVF2(xs, warm, o, fw)
	}

	// Validation gate: the warm fit must satisfy the same parameter and
	// CDF sanity checks FitRobust applies, and must not score below the
	// cold floor — the log-likelihood of the best cheap single-component
	// fit of this sample. A healthy two-component refinement always beats
	// a moment-matched single skew-normal; when it does not, the seed's
	// basin does not describe this grid point and the multi-start runs.
	if err := ValidateResult(warm.Result(), xs, o); err != nil {
		return LVF2Result{}, false
	}
	if warm.LogLik < warmFloorLogLik(xs, all, sdFloor)-warmFloorSlack*float64(n) {
		return LVF2Result{}, false
	}
	warm.Warm = WarmHit
	return warm, true
}

// transportSeed orients, repairs and affinely maps a neighbour seed onto
// the target sample: λ is clamped to (0, ½], a degenerate second
// component is re-split from the dominant one so the refinement can
// rediscover a second mode, and both components are shifted/scaled so
// the seed mixture's first two moments match the sample's.
func transportSeed(s Seed, all stats.SampleMoments, sdFloor float64) (lvf2Init, bool) {
	lam, c1, c2 := s.Lambda, s.C1, s.C2
	if !finiteSN(c1) || math.IsNaN(lam) || lam < 0 || lam > 1 {
		return lvf2Init{}, false
	}
	if lam > 0.5 {
		lam, c1, c2 = 1-lam, c2, c1
		if !finiteSN(c1) {
			return lvf2Init{}, false
		}
	}
	if c1.Omega <= 0 {
		return lvf2Init{}, false
	}
	if lam < 1e-3 || !finiteSN(c2) || c2.Omega <= 0 {
		// The neighbour collapsed to plain LVF (eq. 10). Seed a small
		// deterministic upper-mode split so the ECM can either re-collapse
		// or pick up a mode that only emerges at this grid point.
		lam = 0.05
		c2 = stats.SkewNormal{Xi: c1.Xi + 1.5*c1.Omega, Omega: c1.Omega, Alpha: 0}
	}
	if math.Abs(c1.Skewness()) >= warmSeedSkewCap || math.Abs(c2.Skewness()) >= warmSeedSkewCap {
		return lvf2Init{}, false
	}

	m1, v1 := snMeanVar(c1)
	m2, v2 := snMeanVar(c2)
	m0 := (1-lam)*m1 + lam*m2
	v0 := (1-lam)*(v1+(m1-m0)*(m1-m0)) + lam*(v2+(m2-m0)*(m2-m0))
	if !finite(m0) || !finite(v0) || v0 <= 0 {
		return lvf2Init{}, false
	}
	sd := math.Max(all.Std(), sdFloor)
	b := sd / math.Sqrt(v0)
	if !finite(b) || b <= 0 {
		return lvf2Init{}, false
	}
	a := all.Mean - b*m0
	tr := func(c stats.SkewNormal) stats.SkewNormal {
		return stats.SkewNormal{Xi: a + b*c.Xi, Omega: b * c.Omega, Alpha: c.Alpha}
	}
	return lvf2Init{lambda: lam, c1: tr(c1), c2: tr(c2)}, true
}

// warmFloorLogLik is the cold floor of the warm-start gate: the better
// of a moment-matched Gaussian and a moment-matched skew-normal — both
// closed-form, both one pass over the data — which any trustworthy
// two-component fit must dominate.
func warmFloorLogLik(xs []float64, all stats.SampleMoments, sdFloor float64) float64 {
	sd := math.Max(all.Std(), sdFloor)
	gauss := stats.Normal{Mu: all.Mean, Sigma: sd}
	var gaussLL float64
	for _, x := range xs {
		p := gauss.PDF(x)
		if p < 1e-300 {
			p = 1e-300
		}
		gaussLL += math.Log(p)
	}
	sn := snFromMomentsFloored(all, sdFloor)
	snLL := mixLogLik(xs, 0, sn, sn) // λ=0: single-component log-likelihood
	return math.Max(gaussLL, snLL)
}

func snMeanVar(c stats.SkewNormal) (mean, variance float64) {
	m, sd, _ := c.Moments()
	return m, sd * sd
}

func finiteSN(c stats.SkewNormal) bool {
	return finite(c.Xi) && finite(c.Omega) && finite(c.Alpha)
}
