package lvf2

import (
	"lvf2/internal/fit"
	"lvf2/internal/ssta"
	"lvf2/internal/stats"
)

// SSTA support: block-based statistical timing propagation with the
// per-model sum/max algebra of internal/ssta.

// TimingVar is a statistical timing variable closed under Sum and Max.
type TimingVar = ssta.Var

// PathStageSamples is one stage of a timing path for SSTA propagation.
type PathStageSamples = ssta.Stage

// StageResult reports the accumulated state after each stage.
type StageResult = ssta.StageResult

// NewTimingVar fits a model family to stage samples and wraps it as a
// propagatable timing variable.
func NewTimingVar(kind ModelKind, samples []float64, o FitOptions) (TimingVar, error) {
	return ssta.VarFromSamples(kind, samples, o)
}

// PropagateChain runs block-based SSTA along a chain of stages for the
// given model families, returning per-stage golden and model
// distributions.
func PropagateChain(stages []PathStageSamples, kinds []ModelKind, o FitOptions) ([]StageResult, error) {
	return ssta.PropagateChain(stages, kinds, o)
}

// AllModelKinds lists the four models in the paper's comparison order.
func AllModelKinds() []ModelKind {
	out := make([]ModelKind, len(fit.AllModels))
	copy(out, fit.AllModels)
	return out
}

// BerryEsseenBound evaluates Theorem 1's bound C·ρ/√n on the distance of
// an n-stage accumulated delay from Gaussian.
func BerryEsseenBound(rho float64, n int) float64 {
	return ssta.BerryEsseenBound(rho, n)
}

// StageNonGaussianity estimates ρ = E|X−μ|³/σ³ of stage samples, the
// quantity that drives the Berry–Esseen bound.
func StageNonGaussianity(samples []float64) float64 {
	return ssta.AbsThirdStandardizedMoment(samples)
}

// EmpiricalOf wraps golden samples for metric evaluation.
func EmpiricalOf(samples []float64) *stats.Empirical {
	return stats.NewEmpirical(samples)
}
