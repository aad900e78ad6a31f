package lvf2

import (
	"context"

	"lvf2/internal/cells"
	"lvf2/internal/core"
	"lvf2/internal/fit"
	"lvf2/internal/pool"
)

// Fault-tolerant facade: robust fitting with graceful model degradation
// (LVF² → Norm² → LVF → Gaussian) and per-arc characterisation with
// cancellation, deadlines and a replaceable evaluator.

// FitReport is the provenance record of a robust fit: the requested model,
// the rung that actually produced the accepted fit, and every attempt on
// the way down the ladder.
type FitReport = fit.FitReport

// FitAttempt records one try of the robust ladder.
type FitAttempt = fit.Attempt

// RobustOptions tunes FitRobust: base fitter options plus the number of
// perturbed restarts per rung and the restart seed.
type RobustOptions = fit.RobustOptions

// KindGaussian is the terminal rung of the degradation ladder — a plain
// Gaussian, the model every sample set with two distinct finite values
// supports.
const KindGaussian = fit.ModelGaussian

// Typed fitting failures, matchable with errors.Is through wrapped and
// joined errors.
var (
	ErrNotEnoughData   = fit.ErrNotEnoughData
	ErrEmptyData       = fit.ErrEmptyData
	ErrNonFinite       = fit.ErrNonFinite
	ErrDegenerateData  = fit.ErrDegenerateData
	ErrInvalidFit      = fit.ErrInvalidFit
	ErrNonMonotoneCDF  = fit.ErrNonMonotoneCDF
	ErrNonConvergence  = fit.ErrNonConvergence
	ErrAllModelsFailed = fit.ErrAllModelsFailed
)

// FitRobust fits the LVF² model through the full retry/degradation
// ladder: failed fits are retried from perturbed deterministic starts
// with an escalating iteration budget, then degraded one model rung at a
// time, and a sample set too degenerate even for the Gaussian fitter is
// salvaged as a floored moment-matched Gaussian. The report records which
// rung produced the returned model; the model never carries NaN
// parameters.
func FitRobust(samples []float64, o RobustOptions) (Model, FitReport, error) {
	return core.FitModelRobust(samples, o)
}

// FitKindRobust is FitRobust starting from an arbitrary rung.
func FitKindRobust(kind ModelKind, samples []float64, o RobustOptions) (Model, FitReport, error) {
	return core.FitKindRobust(kind, samples, o)
}

// EvalFunc is the electrical-evaluation seam of the characterisation
// pipeline; replace it to inject faults or alternative simulators.
type EvalFunc = cells.EvalFunc

// PanicError is a recovered worker panic, carrying the task label, the
// panic value and the stack trace.
type PanicError = pool.PanicError

// CharacterizeArcCtx is CharacterizeArc with cooperative cancellation and
// deadline support.
func CharacterizeArcCtx(ctx context.Context, cfg CharConfig, arc CellArc) ([]TimingDistribution, error) {
	return cells.CharacterizeArcCtx(ctx, cfg, arc)
}
