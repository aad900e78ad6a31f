package fit

import (
	"context"
	"math"
	"runtime"

	"lvf2/internal/mc"
	"lvf2/internal/opt"
	"lvf2/internal/pool"
	"lvf2/internal/stats"
)

// LVF2Result holds the fitted LVF² parameters of eq. (4):
// f(x) = (1−λ)·SN(x|θ₁) + λ·SN(x|θ₂). By convention component 1 is the
// dominant one (λ ≤ 0.5), which is also the component that inherits the
// classic LVF attributes in the Liberty encoding (§3.3).
type LVF2Result struct {
	Lambda float64
	C1, C2 stats.SkewNormal
	LogLik float64
	Iters  int
	// Warm reports whether this fit was produced by an accepted warm
	// start (WarmHit), a rejected warm start that fell back to the cold
	// multi-start (WarmRejected), or an unseeded cold fit (WarmCold).
	Warm WarmOutcome
}

// Dist returns the fitted mixture.
func (r LVF2Result) Dist() stats.Mixture {
	m, _ := stats.NewMixture(
		[]float64{1 - r.Lambda, r.Lambda},
		[]stats.Dist{r.C1, r.C2})
	return m
}

// Result converts to the generic fit result.
func (r LVF2Result) Result() Result {
	return Result{Model: ModelLVF2, Dist: r.Dist(), LogLik: r.LogLik, Iters: r.Iters}
}

// IsDegenerate reports whether the fit collapsed to a single component
// (λ ≈ 0), i.e. the distribution is adequately described by plain LVF —
// the storage-saving switch §3.4 discusses.
func (r LVF2Result) IsDegenerate() bool { return r.Lambda < 1e-6 }

// maxStarts is the size of the deterministic multi-start set.
const maxStarts = 4

// parallelMinN is the sample count below which the concurrent multi-start
// path is not worth its goroutine setup.
const parallelMinN = 1024

// emMaxPoints caps the sample the exploratory multi-start EM iterates on.
// 4096 keeps the paper-scale scenario fits (2k–4k samples) on the exact
// full-sample path; only the larger characterisation sweeps subsample.
const emMaxPoints = 4096

// FitLVF2 fits the paper's LVF² model by EM (§3.2):
//
//  1. Initialise by K-means (k=2) clustering and per-cluster method of
//     moments. Because the K-means location split is a poor start for
//     same-centre scale mixtures (the paper's Kurtosis scenario), two
//     additional deterministic starts are tried — a centre-vs-tails scale
//     split and a dominant-vs-upper-tail split — and the EM run with the
//     best final log-likelihood wins.
//  2. E-step: posterior responsibilities (eq. 6).
//  3. M-step: weighted method of moments per component — the exact M-step
//     for a skew-normal mixture has no closed form, so the expected
//     complete-data log-likelihood (eq. 7-9) is maximised approximately by
//     matching each component's three weighted sample moments through the
//     bijection g of eq. (2). With Options.Polish a Nelder–Mead ascent on
//     the true log-likelihood (eq. 5) refines all seven parameters.
//
// The independent starts run concurrently on the shared worker pool when
// the sample is large enough and Options.Serial is unset; the winner is
// selected by log-likelihood with ties broken by start index, so the
// result is bit-identical to the serial path.
func FitLVF2(xs []float64, o Options) (LVF2Result, error) {
	fw := wsPool.Get().(*Workspace)
	r, err := FitLVF2Ws(xs, o, fw)
	wsPool.Put(fw)
	return r, err
}

// FitLVF2Ws is FitLVF2 fitting through caller-owned workspace buffers; a
// steady-state call allocates nothing. fw must not be shared between
// concurrent fits (nil falls back to a private workspace).
//
// With Options.Seed set, the warm-start path runs first (see
// FitLVF2Seeded); its validation gate falls back to the cold multi-start
// below, and the resolved outcome is recorded in LVF2Result.Warm and the
// lvf2_fit_warmstart_total counter.
func FitLVF2Ws(xs []float64, o Options, fw *Workspace) (LVF2Result, error) {
	o = o.withDefaults()
	n := len(xs)
	if n < 8 {
		return LVF2Result{}, ErrNotEnoughData
	}
	if err := guardSamples(xs); err != nil {
		return LVF2Result{}, err
	}
	if fw == nil {
		fw = &Workspace{}
	}
	fw.grow(n)

	start := nowFit()
	outcome := WarmCold
	if o.Seed != nil {
		seed := *o.Seed
		o.Seed = nil // the cold fallback below must not recurse
		if warm, ok := fitLVF2Seeded(xs, seed, o, fw); ok {
			observeFit(WarmHit, start)
			return warm, nil
		}
		outcome = WarmRejected
	}
	r, err := fitLVF2Cold(xs, o, fw)
	r.Warm = outcome
	if err == nil {
		observeFit(outcome, start)
	}
	return r, err
}

// fitLVF2Cold is the full multi-start EM pipeline (the pre-warm-start
// FitLVF2Ws body). xs and fw have been validated and grown by the caller.
func fitLVF2Cold(xs []float64, o Options, fw *Workspace) (LVF2Result, error) {
	n := len(xs)
	all := stats.Moments(xs)
	sdFloor := math.Max(all.Std()*1e-3, 1e-300)

	inits := lvf2Inits(xs, all, sdFloor, o, fw)
	// Each start gets a bounded iteration budget: the winner is refined by
	// ECM below, so deep EM tails are wasted work. For the same reason the
	// exploration EM runs on a deterministic strided subsample — the starts
	// only need to locate the right basin; every candidate is re-scored on
	// the full sample before selection and the ECM M-steps are exact.
	oStart := o
	if oStart.MaxIter > 60 {
		oStart.MaxIter = 60
	}
	emXs := xs
	if n > emMaxPoints {
		// fw.sorted is free once the initialisation splits are built.
		stride := (n + emMaxPoints - 1) / emMaxPoints
		m := 0
		for i := 0; i < n; i += stride {
			fw.sorted[m] = xs[i]
			m++
		}
		emXs = fw.sorted[:m]
	}
	runStart := func(i int) {
		init := inits[i]
		r := runLVF2EM(emXs, init, oStart, sdFloor, all.Mean)
		if len(emXs) != n {
			r.LogLik = mixLogLik(xs, r.Lambda, r.C1, r.C2)
		}
		fw.emRuns[i] = r
		// Score the raw initialisation too: the moment M-step can drift
		// away from a good start when a component's weighted skewness
		// exceeds the SN-attainable range (sharp-edged peaks).
		raw := LVF2Result{Lambda: init.lambda, C1: init.c1, C2: init.c2}
		raw.LogLik = mixLogLik(xs, raw.Lambda, raw.C1, raw.C2)
		fw.rawRuns[i] = raw
	}
	par := !o.Serial && len(inits) > 1 && n >= parallelMinN && runtime.GOMAXPROCS(0) > 1
	if par {
		err := pool.ForEach(context.Background(), pool.Options{Workers: len(inits)}, len(inits),
			func(_ context.Context, i int) error {
				runStart(i)
				return nil
			})
		if err != nil {
			// A start panicked (pure math — not expected): rerun serially so
			// the failure surfaces exactly as it would without the pool.
			for i := range inits {
				runStart(i)
			}
		}
	} else {
		for i := range inits {
			runStart(i)
		}
	}
	// Deterministic winner selection: scan in start order, replacing only
	// on a strictly better log-likelihood — identical to the serial loop
	// regardless of how the starts were scheduled.
	best := LVF2Result{LogLik: math.Inf(-1)}
	bestInit := LVF2Result{LogLik: math.Inf(-1)}
	for i := range inits {
		if fw.emRuns[i].LogLik > best.LogLik {
			best = fw.emRuns[i]
		}
		if fw.rawRuns[i].LogLik > bestInit.LogLik {
			bestInit = fw.rawRuns[i]
		}
	}
	// ECM: proper weighted-MLE M-steps. A full rescue run from the best
	// raw initialisation is only needed when the moment-EM shows drift
	// symptoms — a component clamped at the skewness boundary, or a final
	// log-likelihood barely above (or below) an unconverged start. The
	// cheap single polish round always runs.
	clamped := math.Abs(best.C1.Skewness()) > 0.98 || math.Abs(best.C2.Skewness()) > 0.98
	if clamped || best.LogLik < bestInit.LogLik+float64(n)*1e-3 {
		if ecm := ecmRefine(xs, bestInit, 3, fw, par); ecm.LogLik > best.LogLik {
			best = ecm
		}
	}
	best = ecmRefine(xs, best, 1, fw, par)
	best.normalise()
	if o.Polish {
		best = polishLVF2(xs, best, o, fw)
	}
	return best, nil
}

// ecmRefine runs `rounds` of expectation–conditional-maximisation: the
// E-step of eq. (6) followed by an exact weighted maximum-likelihood
// update of each skew-normal component (weightedSNMLE's Newton solve over
// (ξ, log ω, α), warm-started at the current parameters). The two
// component updates are independent given the responsibilities, so the
// parallel path runs them concurrently (each on its own mleScratch half).
// The result is kept only if the final log-likelihood improves on the
// input.
func ecmRefine(xs []float64, r LVF2Result, rounds int, fw *Workspace, par bool) LVF2Result {
	if r.IsDegenerate() || r.Lambda > 1-1e-6 || r.C1.Omega <= 0 || r.C2.Omega <= 0 {
		return r
	}
	n := len(xs)
	lambda, c1, c2 := r.Lambda, r.C1, r.C2
	resp := fw.resp
	w1s := fw.w1s
	for round := 0; round < rounds; round++ {
		t1 := makeSNTerm(1-lambda, c1)
		t2 := makeSNTerm(lambda, c2)
		var w2 float64
		for i, x := range xs {
			p1 := t1.pdf(x)
			p2 := t2.pdf(x)
			tot := p1 + p2
			if tot < 1e-300 {
				tot = 1e-300
				p2 = 0
			}
			ri := p2 / tot
			resp[i] = ri
			w1s[i] = 1 - ri
			w2 += ri
		}
		lambda = w2 / float64(n)
		if lambda < 1e-9 || lambda > 1-1e-9 {
			return r
		}
		if par {
			nc1, nc2 := c1, c2
			err := pool.ForEach(context.Background(), pool.Options{Workers: 2}, 2,
				func(_ context.Context, i int) error {
					if i == 0 {
						nc1 = weightedSNMLE(xs, w1s, c1, &fw.mle[0])
					} else {
						nc2 = weightedSNMLE(xs, resp, c2, &fw.mle[1])
					}
					return nil
				})
			if err != nil {
				// Surface a panic serially rather than dropping the update.
				nc1 = weightedSNMLE(xs, w1s, c1, &fw.mle[0])
				nc2 = weightedSNMLE(xs, resp, c2, &fw.mle[1])
			}
			c1, c2 = nc1, nc2
		} else {
			c1 = weightedSNMLE(xs, w1s, c1, &fw.mle[0])
			c2 = weightedSNMLE(xs, resp, c2, &fw.mle[1])
		}
	}
	ll := mixLogLik(xs, lambda, c1, c2)
	if ll <= r.LogLik {
		return r
	}
	return LVF2Result{Lambda: lambda, C1: c1, C2: c2, LogLik: ll, Iters: r.Iters}
}

// mixLogLik evaluates eq. (5) for a two-component skew-normal mixture.
func mixLogLik(xs []float64, lambda float64, c1, c2 stats.SkewNormal) float64 {
	t1 := makeSNTerm(1-lambda, c1)
	t2 := makeSNTerm(lambda, c2)
	var ll float64
	for _, x := range xs {
		t := t1.pdf(x) + t2.pdf(x)
		if t < 1e-300 {
			t = 1e-300
		}
		ll += math.Log(t)
	}
	return ll
}

// lvf2Init is one EM starting point.
type lvf2Init struct {
	lambda float64
	c1, c2 stats.SkewNormal
}

// lvf2Inits builds the deterministic multi-start set into fw.inits. With
// Options.PerturbInit > 0 every start is jittered by a seeded RNG — the
// FitRobust retry path uses this to escape a bad basin deterministically.
func lvf2Inits(xs []float64, all stats.SampleMoments, sdFloor float64, o Options, fw *Workspace) []lvf2Init {
	inits := fw.inits[:0]
	n := len(xs)
	sorted := sortInto(fw.sorted, xs)

	// 1. K-means location split (§3.2's initialisation).
	cen0, cen1 := kMeans2(xs, sorted, fw.assign, 50)
	lam, c1, c2 := snInitFromClusters(xs, fw.assign, cen0, cen1, all, sdFloor)
	inits = append(inits, lvf2Init{lam, c1, c2})

	// 2. Scale split: centre 70% vs tails — the right start for
	// same-centre different-σ mixtures (Kurtosis scenario).
	med := sorted[n/2]
	cut := 1.0 * all.Std()
	var inner, outer stats.MomentAccumulator
	inner.Reset(med)
	outer.Reset(med)
	for _, x := range xs {
		if math.Abs(x-med) <= cut {
			inner.Add(x)
		} else {
			outer.Add(x)
		}
	}
	if inner.Count() >= 8 && outer.Count() >= 8 {
		mi, mo := inner.Moments(), outer.Moments()
		// Widen the tail component: its subset sd underestimates the
		// generating component's sd.
		inits = append(inits, lvf2Init{
			lambda: float64(outer.Count()) / float64(n),
			c1:     snFromMomentsFloored(mi, sdFloor),
			c2:     stats.SNFromMoments(mo.Mean, mo.Std()*1.5, 0),
		})
	}

	// 3. Dominant-vs-upper-tail split (Minor Saddle shapes): lower 80%
	// against the top 20%.
	q80 := sorted[int(0.8*float64(n-1))]
	var lo, hi stats.MomentAccumulator
	lo.Reset(all.Mean)
	hi.Reset(q80)
	for _, x := range xs {
		if x <= q80 {
			lo.Add(x)
		} else {
			hi.Add(x)
		}
	}
	if lo.Count() >= 8 && hi.Count() >= 8 {
		ml, mh := lo.Moments(), hi.Moments()
		inits = append(inits, lvf2Init{
			lambda: 0.2,
			c1:     snFromMomentsFloored(ml, sdFloor),
			c2:     stats.SNFromMoments(mh.Mean, mh.Std()*1.5, 0),
		})
	}

	// 4. The converged Norm² solution with zero skews: the SN mixture
	// family strictly contains the Gaussian mixture, so starting from the
	// best Gaussian fit guarantees LVF² does not trail Norm² merely for
	// optimisation reasons. (Runs last: it reuses fw.sorted/fw.assign.)
	if g, err := fitNorm2(xs, Options{}, fw); err == nil && g.Lambda > 1e-9 {
		inits = append(inits, lvf2Init{
			lambda: g.Lambda,
			c1:     stats.SkewNormal{Xi: g.C1.Mu, Omega: g.C1.Sigma},
			c2:     stats.SkewNormal{Xi: g.C2.Mu, Omega: g.C2.Sigma},
		})
	}
	if o.PerturbInit > 0 {
		rng := mc.NewRNG(o.PerturbSeed | 1)
		sd := math.Max(all.Std(), sdFloor)
		jitterSN := func(c stats.SkewNormal) stats.SkewNormal {
			c.Xi += (2*rng.Float64() - 1) * o.PerturbInit * sd
			c.Omega *= math.Exp((2*rng.Float64() - 1) * o.PerturbInit)
			c.Alpha += (2*rng.Float64() - 1) * o.PerturbInit * 3
			return c
		}
		for i := range inits {
			inits[i].c1 = jitterSN(inits[i].c1)
			inits[i].c2 = jitterSN(inits[i].c2)
			lam := inits[i].lambda + (2*rng.Float64()-1)*o.PerturbInit*0.5
			inits[i].lambda = math.Min(math.Max(lam, 0.02), 0.5)
		}
	}
	return inits
}

// runLVF2EM runs the EM loop from one starting point. The E-step and the
// weighted-moment M-step are fused into a single pass: responsibilities
// feed two pivot-shifted moment accumulators directly (complementary
// weights), so no per-point arrays are touched at all.
func runLVF2EM(xs []float64, init lvf2Init, o Options, sdFloor, pivot float64) LVF2Result {
	n := len(xs)
	lambda, c1, c2 := init.lambda, init.c1, init.c2

	var a1, a2 stats.MomentAccumulator
	var iters int
	for iters = 0; iters < o.MaxIter; iters++ {
		// E-step (eq. 6): responsibility of component 2 per point.
		// (Convergence is tested on the parameters, not the
		// log-likelihood, which keeps math.Log out of the hot loop.)
		t1 := makeSNTerm(1-lambda, c1)
		t2 := makeSNTerm(lambda, c2)
		a1.Reset(pivot)
		a2.Reset(pivot)
		for _, x := range xs {
			p1 := t1.pdf(x)
			p2 := t2.pdf(x)
			tot := p1 + p2
			if tot < 1e-300 {
				p2 = 0
				tot = 1e-300
			}
			r := p2 / tot
			a1.AddWeighted(x, 1-r)
			a2.AddWeighted(x, r)
		}

		// M-step: weighted method of moments per component.
		newLambda := a2.WeightSum() / float64(n)
		if newLambda < 1e-9 || newLambda > 1-1e-9 {
			lambda = clamp01eps(newLambda)
			break
		}
		m1 := a1.Moments()
		m2 := a2.Moments()
		newC1 := snFromMomentsFloored(m1, sdFloor)
		newC2 := snFromMomentsFloored(m2, sdFloor)

		// sdFloor is 1e-3 of the overall sample sd, so pTol is 1e-5 of the
		// data scale — below the ECM polish resolution downstream.
		pTol := sdFloor * 1e-2
		converged := iters > 0 &&
			math.Abs(newLambda-lambda) < 1e-6 &&
			math.Abs(newC1.Xi-c1.Xi) < pTol &&
			math.Abs(newC2.Xi-c2.Xi) < pTol &&
			math.Abs(newC1.Omega-c1.Omega) < pTol &&
			math.Abs(newC2.Omega-c2.Omega) < pTol
		lambda, c1, c2 = newLambda, newC1, newC2
		if converged {
			break
		}
	}

	return LVF2Result{
		Lambda: lambda, C1: c1, C2: c2,
		LogLik: mixLogLik(xs, lambda, c1, c2),
		Iters:  iters,
	}
}

func (r *LVF2Result) normalise() {
	if r.Lambda > 0.5 {
		r.Lambda = 1 - r.Lambda
		r.C1, r.C2 = r.C2, r.C1
	}
}

func snFromMomentsFloored(m stats.SampleMoments, sdFloor float64) stats.SkewNormal {
	sd := m.Std()
	if sd < sdFloor {
		sd = sdFloor
	}
	return stats.SNFromMoments(m.Mean, sd, m.Skewness)
}

// snInitFromClusters derives the k-means start's component parameters from
// the cluster assignment, accumulating each cluster's moments in one pass
// (pivoted at its centre) instead of materialising per-cluster slices.
func snInitFromClusters(xs []float64, assign []int, cen0, cen1 float64, all stats.SampleMoments, sdFloor float64) (lambda float64, c1, c2 stats.SkewNormal) {
	var a1, a2 stats.MomentAccumulator
	a1.Reset(cen0)
	a2.Reset(cen1)
	for i, x := range xs {
		if assign[i] == 0 {
			a1.Add(x)
		} else {
			a2.Add(x)
		}
	}
	if a1.Count() < 4 || a2.Count() < 4 {
		sd := all.Std()
		c1 = stats.SNFromMoments(all.Mean-0.5*sd, sd, 0)
		c2 = stats.SNFromMoments(all.Mean+0.5*sd, sd, 0)
		return 0.5, c1, c2
	}
	return float64(a2.Count()) / float64(len(xs)),
		snFromMomentsFloored(a1.Moments(), sdFloor),
		snFromMomentsFloored(a2.Moments(), sdFloor)
}

// polishLVF2 refines the EM solution with a bounded Nelder–Mead ascent on
// the exact log-likelihood (eq. 5) over the parameter vector
// (logit λ, ξ₁, log ω₁, α₁, ξ₂, log ω₂, α₂).
func polishLVF2(xs []float64, r LVF2Result, o Options, fw *Workspace) LVF2Result {
	if r.IsDegenerate() || r.C1.Omega <= 0 || r.C2.Omega <= 0 {
		return r
	}
	x0 := [7]float64{
		logit(r.Lambda),
		r.C1.Xi, math.Log(r.C1.Omega), r.C1.Alpha,
		r.C2.Xi, math.Log(r.C2.Omega), r.C2.Alpha,
	}
	neg := func(p []float64) float64 {
		lam := sigmoid(p[0])
		if lam < 1e-9 || lam > 1-1e-9 || math.Abs(p[3]) > 60 || math.Abs(p[6]) > 60 {
			return math.Inf(1)
		}
		t1 := makeSNTerm(1-lam, stats.SkewNormal{Xi: p[1], Omega: math.Exp(p[2]), Alpha: p[3]})
		t2 := makeSNTerm(lam, stats.SkewNormal{Xi: p[4], Omega: math.Exp(p[5]), Alpha: p[6]})
		var ll float64
		for _, x := range xs {
			t := t1.pdf(x) + t2.pdf(x)
			if t < 1e-300 {
				t = 1e-300
			}
			ll += math.Log(t)
		}
		return -ll
	}
	best, nll := opt.NelderMeadWs(neg, x0[:], opt.NelderMeadOptions{
		MaxIter: 150 * len(x0),
		TolF:    1e-8,
		TolX:    1e-8,
	}, &fw.nm7)
	if -nll <= r.LogLik {
		return r
	}
	out := LVF2Result{
		Lambda: sigmoid(best[0]),
		C1:     stats.SkewNormal{Xi: best[1], Omega: math.Exp(best[2]), Alpha: best[3]},
		C2:     stats.SkewNormal{Xi: best[4], Omega: math.Exp(best[5]), Alpha: best[6]},
		LogLik: -nll,
		Iters:  r.Iters,
	}
	out.normalise()
	return out
}

func logit(p float64) float64 {
	if p <= 0 {
		return -30
	}
	if p >= 1 {
		return 30
	}
	return math.Log(p / (1 - p))
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
