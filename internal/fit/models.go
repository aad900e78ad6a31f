package fit

import (
	"errors"
	"fmt"

	"lvf2/internal/stats"
)

// Revision names the revision of the numerics behind a journaled unit:
// the bits it holds for a given configuration, that is, the samples the
// Monte-Carlo layer draws (through stats.StdNormQuantile) and the bits
// every fitter returns for them. Checkpoint journals store fitted
// payload bits and warm-start seeds chain from them, so resumable
// pipelines put Revision in their journal fingerprints, and a journal
// written under other numerics is refused instead of mixed into a new
// build. Change it whenever a drawn sample's or a fitter's output bits
// change.
const Revision = "mstep-newton+as241"

// Model enumerates the statistical timing models under comparison.
type Model int

const (
	// ModelLVF is the industry-standard single skew-normal (baseline).
	ModelLVF Model = iota
	// ModelNorm2 is the two-component Gaussian mixture of Takahashi 2009.
	ModelNorm2
	// ModelLESN is the log-extended-skew-normal of Jin 2022.
	ModelLESN
	// ModelLVF2 is the paper's two-component skew-normal mixture.
	ModelLVF2
	// ModelLN is the log-normal of Keller 2014 (paper ref. [5]) — an
	// extended comparator outside the paper's main four.
	ModelLN
	// ModelLSN is the log-skew-normal of Balef 2016 (paper ref. [6]).
	ModelLSN
	// ModelGaussian is the plain Gaussian — the terminal rung of the
	// FitRobust degradation ladder, not part of the paper's comparison.
	ModelGaussian
)

// AllModels lists the four models in the paper's comparison order.
var AllModels = []Model{ModelLVF2, ModelNorm2, ModelLESN, ModelLVF}

// ExtendedModels adds the earlier-generation log-domain models the paper
// cites as related work ([5], [6]) to the comparison set.
var ExtendedModels = []Model{ModelLVF2, ModelNorm2, ModelLESN, ModelLN, ModelLSN, ModelLVF}

// String returns the paper's name for the model.
func (m Model) String() string {
	switch m {
	case ModelLVF:
		return "LVF"
	case ModelNorm2:
		return "Norm2"
	case ModelLESN:
		return "LESN"
	case ModelLVF2:
		return "LVF2"
	case ModelLN:
		return "LN"
	case ModelLSN:
		return "LSN"
	case ModelGaussian:
		return "Gaussian"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Options tunes the iterative fitters. The zero value uses sane defaults.
type Options struct {
	// MaxIter bounds EM iterations (default 200).
	MaxIter int
	// Tol is the log-likelihood convergence threshold (default 1e-7
	// relative change).
	Tol float64
	// Polish enables a Nelder–Mead maximum-likelihood refinement after the
	// moment-based EM for LVF² (slower, slightly more accurate).
	Polish bool
	// PerturbInit jitters the deterministic EM starting points by this
	// relative amount (0 = none). FitRobust uses it to escape bad basins
	// on retry without sacrificing reproducibility.
	PerturbInit float64
	// PerturbSeed selects the deterministic jitter stream.
	PerturbSeed uint64
	// Serial disables the concurrent multi-start path of FitLVF2. The
	// fitted parameters are bit-identical either way; this exists for
	// callers that must not spawn goroutines (and for the determinism
	// tests that compare the two paths).
	Serial bool
	// Seed, when non-nil, warm-starts FitLVF2 from a neighbouring fit's
	// converged parameters: the exploratory multi-start is skipped and
	// the transported seed refined by ECM, falling back to the full cold
	// multi-start when the refinement fails the validation gate. Only
	// FitLVF2 consults it; every other fitter ignores it.
	Seed *Seed
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// Result is a fitted model: the distribution, the achieved log-likelihood
// and the iteration count of the inner algorithm (0 for closed forms).
type Result struct {
	Model  Model
	Dist   stats.Dist
	LogLik float64
	Iters  int
	// Warm is the warm-start outcome for LVF² fits (WarmCold for every
	// other model and for unseeded fits).
	Warm WarmOutcome
}

// ErrNotEnoughData is returned when a fitter needs more samples.
var ErrNotEnoughData = errors.New("fit: not enough data")

// ErrNonPositive is returned by the LESN fitter for data with values <= 0
// (its support is the positive half-line).
var ErrNonPositive = errors.New("fit: LESN requires strictly positive data")

// Fit dispatches to the model-specific fitter. Degenerate inputs (empty,
// single-point, all-identical or NaN/Inf-contaminated sample sets) are
// rejected with typed errors before any fitter runs, so no model ever
// returns NaN parameters.
func Fit(model Model, xs []float64, o Options) (Result, error) {
	if err := ValidateSamples(xs); err != nil {
		return Result{}, err
	}
	switch model {
	case ModelLVF:
		return FitLVF(xs)
	case ModelNorm2:
		return FitNorm2(xs, o)
	case ModelLESN:
		return FitLESN(xs, o)
	case ModelLVF2:
		r, err := FitLVF2(xs, o)
		if err != nil {
			return Result{}, err
		}
		res := r.Result()
		res.Warm = r.Warm
		return res, nil
	case ModelLN:
		return FitLN(xs)
	case ModelLSN:
		return FitLSN(xs, o)
	case ModelGaussian:
		return FitNormal(xs)
	default:
		return Result{}, fmt.Errorf("fit: unknown model %d", int(model))
	}
}

// LogLikelihood computes Σ log f(xᵢ) with densities floored at 1e-300.
func LogLikelihood(d stats.Dist, xs []float64) float64 {
	var ll float64
	for _, x := range xs {
		p := d.PDF(x)
		if p < 1e-300 {
			p = 1e-300
		}
		ll += logf(p)
	}
	return ll
}
