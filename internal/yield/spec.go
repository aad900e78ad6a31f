package yield

import (
	"lvf2/internal/spice"
	"lvf2/internal/stats"
)

// Metric selects which arc output a process-space spec thresholds.
type Metric int

// Arc metrics.
const (
	MetricDelay Metric = iota
	MetricTransition
)

// FromArc builds the full process-space Spec of one timing arc at one
// slew–load point: Eval runs the arc's electrical model over the
// standardised spice.NumParams-dimensional process vector — the same
// space the characterisation samplers draw from — so the estimate is a
// golden-model tail probability, independent of any fitted distribution.
func FromArc(e spice.CellElectrical, c spice.Corner, metric Metric, slewNS, loadPF, threshold float64) Spec {
	pt := e.At(c, slewNS, loadPF)
	return Spec{
		Dim:       spice.NumParams,
		Threshold: threshold,
		Eval: func(x []float64) float64 {
			delay, trans := pt.Eval(spice.ParamsFromVector(x))
			if metric == MetricTransition {
				return trans
			}
			return delay
		},
	}
}

// FromDist builds the one-dimensional latent-space Spec of a fitted
// delay distribution d. The delay is the monotone transform
// X = Q_d(Φ(Z)) of a standard-normal latent Z, so the failure event
// X > t is exactly Z > Φ⁻¹(F_d(t)): mapping the threshold into latent
// units once lets the estimators pay one float compare per sample
// instead of a quantile inversion per sample — the fitted-model serving
// fast path — while remaining honest sampling estimators of the same
// event. The CDF complement saturates near 8σ (float64 resolution at
// 1−F ≈ 1e-16); deeper tails clamp to that bound.
func FromDist(d stats.Dist, threshold float64) Spec {
	p := d.CDF(threshold)
	const eps = 1e-15
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	zt := stats.StdNormQuantile(p)
	return Spec{
		Dim:       1,
		Threshold: zt,
		Eval:      func(x []float64) float64 { return x[0] },
	}
}
