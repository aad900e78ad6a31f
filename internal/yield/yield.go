// Package yield estimates rare-event timing yield: P(delay > T) when the
// clock target T sits 3–6 golden sigmas out, where the brute-force Monte
// Carlo behind binning.YieldAtSigma needs 10⁷–10¹¹ samples. It provides a
// ladder of interchangeable estimators behind one interface —
//
//   - plain MC: the unbiased baseline and the degraded-mode fallback;
//   - MNIS: mean-shift importance sampling — find a minimum-norm failure
//     point in the standardised process space, re-centre the Gaussian-LHS
//     sampler there, and unweight each sample by its likelihood ratio
//     (the OpenYield / ISLE recipe for SRAM and timing tails);
//   - AIS: adaptive importance sampling — start from the same failure
//     point but iteratively re-centre the proposal on the weighted mean
//     of the failures actually observed, tracking failure regions the
//     min-norm point alone describes poorly.
//
// Every estimator runs under a confidence-interval contract: it draws
// batches until the relative CI half-width on the failure probability
// reaches the target (default ±1% at 95%) or a sample/deadline budget is
// exhausted — never for a fixed count. Results always carry the achieved
// CI, the estimator variance and the effective sample size, so a caller
// can tell a converged answer from a budget-capped partial one.
package yield

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"lvf2/internal/mc"
	"lvf2/internal/stats"
)

// Spec describes one rare-event problem over the standardised process
// space: a sample x ~ N(0,1)^Dim fails when Eval(x) > Threshold.
type Spec struct {
	// Dim is the dimensionality of the standardised process space
	// (spice.NumParams for electrical-model specs, 1 for latent specs).
	Dim int
	// Eval returns the performance metric (delay) at one process vector.
	// The slice is only valid for the duration of the call. Eval must be
	// deterministic: the estimators re-evaluate regions freely. Eval must
	// also be safe for concurrent use: an estimate scores each batch's
	// samples on up to GOMAXPROCS goroutines.
	Eval func(x []float64) float64
	// Threshold is the failure boundary (the clock target): a sample
	// fails when Eval(x) > Threshold.
	Threshold float64
}

func (s Spec) validate() error {
	if s.Dim <= 0 {
		return fmt.Errorf("yield: spec dimension %d, want > 0", s.Dim)
	}
	if s.Eval == nil {
		return fmt.Errorf("yield: spec has no Eval function")
	}
	return nil
}

// Contract is the stopping rule every estimator runs under. Zero fields
// take the defaults; see WithDefaults.
type Contract struct {
	// RelErr is the target relative CI half-width on the failure
	// probability: sampling stops once z·stderr/p̂ ≤ RelErr (default 0.01,
	// the ±1% contract).
	RelErr float64
	// Level is the confidence level of the interval (default 0.95).
	Level float64
	// Batch is the number of samples drawn per convergence check
	// (default 4096). Context cancellation is honoured between batches.
	Batch int
	// MaxSamples bounds the total evaluation budget, failure-point search
	// included (default 1<<22 ≈ 4.2M). A run that exhausts it returns its
	// partial estimate with Converged=false.
	MaxSamples int
	// MinFailures is the number of observed failures required before the
	// normal-approximation CI is trusted (default 8): below it the
	// variance estimate itself is noise and the contract cannot close.
	MinFailures int
	// Seed seeds the deterministic sampler (default 0x51e1d). Identical
	// (Spec, Contract) inputs produce bit-identical Results.
	Seed uint64
}

// WithDefaults fills zero fields with the package defaults.
func (c Contract) WithDefaults() Contract {
	if c.RelErr <= 0 {
		c.RelErr = 0.01
	}
	if c.Level <= 0 || c.Level >= 1 {
		c.Level = 0.95
	}
	if c.Batch <= 0 {
		c.Batch = 4096
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1 << 22
	}
	if c.MinFailures <= 0 {
		c.MinFailures = 8
	}
	if c.Seed == 0 {
		c.Seed = 0x51e1d
	}
	return c
}

// Interval is a confidence interval on the failure probability.
type Interval struct {
	Lo, Hi float64
	Level  float64
}

// Result is one finished (or budget-capped) estimate.
type Result struct {
	// Estimator is the name of the estimator that produced the result.
	Estimator string
	// FailProb is the estimated failure probability P(Eval > Threshold);
	// Yield is its complement.
	FailProb float64
	Yield    float64
	// StdErr is the estimator's standard error; Variance its square. Both
	// describe the estimator (they shrink with samples), not the
	// population.
	StdErr   float64
	Variance float64
	// CI is the normal-approximation confidence interval at the contract
	// level, clamped to [0,1]. With zero observed failures it degrades to
	// the exact binomial upper bound (rule of three).
	CI Interval
	// HalfWidth is the absolute CI half-width before [0,1] clamping (the
	// zero-failure bound itself for zero-failure runs); RelHalfWidth is
	// HalfWidth/FailProb, +Inf when the estimate is zero. Callers that
	// combine per-component estimates (netlist yield) propagate HalfWidth.
	HalfWidth    float64
	RelHalfWidth float64
	// ESS is the Kish effective sample size (Σw)²/Σw² over the likelihood
	// ratios of all drawn samples — n for plain MC, smaller whenever the
	// proposal mismatches the nominal distribution.
	ESS float64
	// Samples is the total evaluation count, failure-point search
	// included; SearchEvals is the search share of it.
	Samples     int
	SearchEvals int
	// Batches is the number of convergence checks performed.
	Batches int
	// Failures is the number of failure-region hits observed.
	Failures int
	// Converged reports whether the CI contract was met within budget.
	Converged bool
	// Shift is the proposal centre the estimator ended on (nil for plain
	// MC): the mean-shift vector of MNIS, the final adapted centre of AIS.
	Shift []float64
}

// Estimator is one rung of the ladder. Estimate must be deterministic
// for fixed (Spec, Contract) — bit-identical at any GOMAXPROCS — and
// must honour ctx between batches, returning its partial estimate
// (Converged=false) rather than an error when the deadline or budget
// cuts sampling short. A panic in Spec.Eval is re-raised on the calling
// goroutine, and no goroutine an estimate starts outlives it.
type Estimator interface {
	Name() string
	Estimate(ctx context.Context, spec Spec, c Contract) (Result, error)
}

// Names lists the estimator ladder in escalation order.
var Names = []string{"mc", "mnis", "ais"}

// New returns the named estimator.
func New(name string) (Estimator, error) {
	switch name {
	case "mc":
		return plainMC{}, nil
	case "mnis":
		return mnis{}, nil
	case "ais":
		return ais{}, nil
	}
	return nil, fmt.Errorf("yield: unknown estimator %q (want mc|mnis|ais)", name)
}

// acc accumulates the weighted failure indicators u_i = w_i·1{fail} of
// one estimate, plus the all-sample likelihood-ratio moments for the ESS
// diagnostic.
type acc struct {
	n           int
	sum, sum2   float64 // Σu, Σu² over the failure indicators
	wsum, wsum2 float64 // Σw, Σw² over every drawn sample
	failures    int
	batches     int
}

func (a *acc) observe(w float64, failed bool) {
	a.n++
	a.wsum += w
	a.wsum2 += w * w
	if failed {
		a.sum += w
		a.sum2 += w * w
		a.failures++
	}
}

// zScore is the two-sided standard-normal critical value of the level.
func zScore(level float64) float64 {
	return stats.StdNormQuantile(0.5 + level/2)
}

// result snapshots the accumulator into a Result. searchEvals are charged
// to the sample count but carry no statistical weight.
func (a *acc) result(name string, c Contract, searchEvals int, shift []float64) Result {
	r := Result{
		Estimator:   name,
		Samples:     a.n + searchEvals,
		SearchEvals: searchEvals,
		Batches:     a.batches,
		Failures:    a.failures,
		CI:          Interval{Level: c.Level},
		Shift:       shift,
	}
	if a.n == 0 {
		r.RelHalfWidth = math.Inf(1)
		r.CI.Hi = 1
		r.Yield = 1
		return r
	}
	n := float64(a.n)
	pf := a.sum / n
	r.FailProb = pf
	r.Yield = 1 - pf
	if a.wsum2 > 0 {
		r.ESS = a.wsum * a.wsum / a.wsum2
	}
	if a.failures == 0 {
		// No failure observed: the variance estimate is identically zero
		// and says nothing. Report the exact binomial upper bound
		// P(no failure in n) = (1-p)^n — the "rule of three" — which for
		// importance-sampling proposals shifted into the failure region is
		// conservative too (likelihood ratios there are below one).
		r.RelHalfWidth = math.Inf(1)
		r.CI.Hi = 1 - math.Pow(1-c.Level, 1/n)
		r.HalfWidth = r.CI.Hi
		return r
	}
	if a.n > 1 {
		s2 := (a.sum2 - n*pf*pf) / (n - 1)
		if s2 < 0 {
			s2 = 0
		}
		r.Variance = s2 / n
		r.StdErr = math.Sqrt(r.Variance)
	}
	hw := zScore(c.Level) * r.StdErr
	r.HalfWidth = hw
	r.CI.Lo = math.Max(0, pf-hw)
	r.CI.Hi = math.Min(1, pf+hw)
	if pf > 0 {
		r.RelHalfWidth = hw / pf
	} else {
		r.RelHalfWidth = math.Inf(1)
	}
	r.Converged = a.failures >= c.MinFailures && r.RelHalfWidth <= c.RelErr
	return r
}

// sampleLoop is the shared CI-contract driver: it draws Gaussian-LHS
// batches from N(center, I) — a nil center is the nominal process
// distribution, i.e. plain MC — scores every sample's likelihood ratio
// and failure indicator, and stops at the first convergence check that
// meets the contract, or when the budget (minus evals already spent on
// the failure-point search) or the context deadline runs out.
func sampleLoop(ctx context.Context, spec Spec, c Contract, rng *mc.RNG, center []float64, searchEvals int, name string) Result {
	sc := newScorer(spec, c.Batch, runtime.GOMAXPROCS(0))
	defer sc.stop()

	var a acc
	budget := c.MaxSamples - searchEvals
	for a.n < budget && ctx.Err() == nil {
		batch := c.Batch
		if rem := budget - a.n; batch > rem {
			batch = rem
		}
		sc.score(mc.LatinHypercubeInto(rng, batch, spec.Dim, &sc.m), center)
		for i := 0; i < batch; i++ {
			a.observe(sc.w[i], sc.fail[i])
		}
		a.batches++
		if r := a.result(name, c, searchEvals, nil); r.Converged {
			break
		}
	}
	r := a.result(name, c, searchEvals, center)
	observeEstimate(r)
	return r
}

// plainMC is the baseline rung: unweighted sampling from the nominal
// process distribution. Exact and assumption-free, but needs ~z²/(p·ε²)
// samples — hopeless beyond ~4σ.
type plainMC struct{}

func (plainMC) Name() string { return "mc" }

func (plainMC) Estimate(ctx context.Context, spec Spec, c Contract) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	c = c.WithDefaults()
	rng := mc.NewRNG(c.Seed)
	return sampleLoop(ctx, spec, c, rng, nil, 0, "mc"), nil
}

// ProjectedSamples extrapolates how many samples an estimator at this
// result's variance level would need to close the contract. For a
// partial plain-MC run this is the honest "what would it cost" figure
// the benchmarks report; returns 0 when the result carries no usable
// probability estimate.
func ProjectedSamples(r Result, c Contract) float64 {
	c = c.WithDefaults()
	if r.FailProb <= 0 || r.Samples == 0 {
		return 0
	}
	if r.Converged {
		return float64(r.Samples)
	}
	// n ≈ (z/ε)² · Var₁/p² with Var₁ the single-sample variance
	// n·StdErr².
	z := zScore(c.Level)
	var1 := float64(r.Samples-r.SearchEvals) * r.Variance
	if var1 <= 0 {
		// Plain-MC Bernoulli fallback: Var₁ = p(1−p).
		var1 = r.FailProb * (1 - r.FailProb)
	}
	n := (z / c.RelErr) * (z / c.RelErr) * var1 / (r.FailProb * r.FailProb)
	return math.Ceil(n)
}
