// Package binning implements speed binning and the paper's three
// evaluation metrics: bin probability error, 3σ-yield error and CDF RMSE,
// plus the error-reduction normalisation of eq. (12).
//
// Binning follows §2.1: boundaries T₁ < … < Tₙ partition the delay axis
// into n+1 bins; bin probabilities come from CDF differences (eq. 1). The
// paper's experiments use boundaries at μ±3σ, μ±2σ, μ±σ and μ of the
// golden distribution, giving eight bins.
package binning

import (
	"math"

	"lvf2/internal/stats"
)

// Boundaries is a sorted list of bin thresholds T₁ < T₂ < … < Tₙ.
type Boundaries []float64

// SigmaBoundaries returns the paper's seven thresholds
// μ−3σ, μ−2σ, μ−σ, μ, μ+σ, μ+2σ, μ+3σ (eight bins).
func SigmaBoundaries(mean, sd float64) Boundaries {
	return Boundaries{
		mean - 3*sd, mean - 2*sd, mean - sd, mean,
		mean + sd, mean + 2*sd, mean + 3*sd,
	}
}

// Probabilities evaluates eq. (1): the probability mass of each of the
// len(b)+1 bins under the given CDF.
func Probabilities(cdf func(float64) float64, b Boundaries) []float64 {
	n := len(b)
	probs := make([]float64, n+1)
	prev := 0.0
	for i, t := range b {
		c := cdf(t)
		if c < prev {
			c = prev // enforce monotonicity against numerical noise
		}
		probs[i] = c - prev
		prev = c
	}
	probs[n] = 1 - prev
	if probs[n] < 0 {
		probs[n] = 0
	}
	return probs
}

// DistProbabilities is Probabilities for a stats.Dist.
func DistProbabilities(d stats.Dist, b Boundaries) []float64 {
	return Probabilities(d.CDF, b)
}

// EmpiricalProbabilities bins the golden sample.
func EmpiricalProbabilities(e *stats.Empirical, b Boundaries) []float64 {
	return Probabilities(e.CDF, b)
}

// BinningError is the mean absolute difference between model and golden
// bin probabilities. The slices must have equal length.
func BinningError(model, golden []float64) float64 {
	if len(model) != len(golden) || len(model) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range model {
		s += math.Abs(model[i] - golden[i])
	}
	return s / float64(len(model))
}

// YieldAtSigma returns P(t ≤ μ+kσ), the fraction of chips meeting a
// target delay set k golden sigmas above the golden mean. k is a real
// sigma multiple — the rare-event serving path asks for 4σ–6σ targets the
// fixed 3σ metric cannot express.
func YieldAtSigma(cdf func(float64) float64, goldenMean, goldenSd, k float64) float64 {
	return cdf(goldenMean + k*goldenSd)
}

// Yield3Sigma returns P(t ≤ μ+3σ), the fraction of chips meeting a target
// delay set three golden sigmas above the golden mean — the paper's
// 3σ-yield metric.
func Yield3Sigma(cdf func(float64) float64, goldenMean, goldenSd float64) float64 {
	return YieldAtSigma(cdf, goldenMean, goldenSd, 3)
}

// YieldError is the absolute 3σ-yield difference between a model and the
// golden sample.
func YieldError(model stats.Dist, e *stats.Empirical) float64 {
	m := e.Moments()
	return math.Abs(Yield3Sigma(model.CDF, m.Mean, m.Std()) -
		Yield3Sigma(e.CDF, m.Mean, m.Std()))
}

// CDFRMSE is the root-mean-square error between the model CDF and the
// empirical CDF, evaluated at up to maxPoints evenly spaced order
// statistics of the golden sample (all points if maxPoints <= 0).
func CDFRMSE(model stats.Dist, e *stats.Empirical, maxPoints int) float64 {
	sorted := e.Sorted()
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	step := 1
	if maxPoints > 0 && n > maxPoints {
		step = n / maxPoints
	}
	var s float64
	var cnt int
	for i := 0; i < n; i += step {
		// Mid-rank empirical CDF value at the i-th order statistic.
		fe := (float64(i) + 0.5) / float64(n)
		d := model.CDF(sorted[i]) - fe
		s += d * d
		cnt++
	}
	return math.Sqrt(s / float64(cnt))
}

// ErrorReduction is eq. (12): |baseline − golden| / |result − golden|
// expressed on already-computed error magnitudes. A zero result error
// yields +Inf, except that two exactly-zero errors compare as 1 (both
// models are perfect, e.g. saturated yields); callers that aggregate
// should use Cap.
func ErrorReduction(baselineErr, resultErr float64) float64 {
	if resultErr == 0 {
		if baselineErr == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return math.Abs(baselineErr) / math.Abs(resultErr)
}

// Cap limits an error-reduction ratio so a single near-perfect fit cannot
// dominate an average. The paper's per-scenario numbers run up to ~30×;
// 100× is a safe ceiling.
func Cap(ratio, cap float64) float64 {
	if math.IsInf(ratio, 1) || ratio > cap {
		return cap
	}
	return ratio
}

// Metrics bundles the three evaluation metrics for one fitted model
// against one golden sample.
type Metrics struct {
	BinErr   float64 // mean absolute bin-probability error (8 bins)
	YieldErr float64 // |3σ-yield difference|
	CDFRMSE  float64 // RMSE between model and empirical CDF
}

// Evaluate computes all three metrics using golden-moment bin boundaries.
func Evaluate(model stats.Dist, e *stats.Empirical) Metrics {
	m := e.Moments()
	b := SigmaBoundaries(m.Mean, m.Std())
	return Metrics{
		BinErr:   BinningError(DistProbabilities(model, b), EmpiricalProbabilities(e, b)),
		YieldErr: YieldError(model, e),
		CDFRMSE:  CDFRMSE(model, e, 2000),
	}
}

// Reductions converts per-model metrics to error-reduction ratios against
// a baseline model's metrics (eq. 12).
func Reductions(result, baseline Metrics) Metrics {
	return Metrics{
		BinErr:   ErrorReduction(baseline.BinErr, result.BinErr),
		YieldErr: ErrorReduction(baseline.YieldErr, result.YieldErr),
		CDFRMSE:  ErrorReduction(baseline.CDFRMSE, result.CDFRMSE),
	}
}

// ExpectedRevenue prices a binned distribution: prices[i] is the sale
// price of bin i (use 0 for faulty bins). Returns Σ P(binᵢ)·priceᵢ.
// This is the speed-binning economics of Fig. 2.
func ExpectedRevenue(probs, prices []float64) float64 {
	n := len(probs)
	if len(prices) < n {
		n = len(prices)
	}
	var r float64
	for i := 0; i < n; i++ {
		r += probs[i] * prices[i]
	}
	return r
}
