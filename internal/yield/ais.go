package yield

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"lvf2/internal/mc"
)

// aisAdaptRounds bounds how many batches may move the proposal centre;
// after them the centre freezes and sampling continues under the fixed
// proposal until the contract closes or the budget runs out.
const aisAdaptRounds = 8

// aisCenterCap clamps the adapted centre norm: a pathological weight
// configuration must not walk the proposal out past the searched radius.
const aisCenterCap = searchRadius + 1

// ais is adaptive importance sampling: it starts from the same min-norm
// failure point as MNIS, but after each batch re-centres the proposal on
// the likelihood-weighted mean of the failure samples observed so far in
// that batch — tracking failure regions whose mass sits away from the
// single min-norm point (curved boundaries, multi-mechanism arcs, the
// very shapes the LVF² mixture exists for). Every sample is unweighted
// against the proposal of its own round, so the pooled estimate stays
// unbiased across adaptation.
type ais struct{}

func (ais) Name() string { return "ais" }

func (ais) Estimate(ctx context.Context, spec Spec, c Contract) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	c = c.WithDefaults()
	rng := mc.NewRNG(c.Seed)
	center, searchEvals, ok := minNormFailure(spec, rng, searchBudget(c)/2)
	if !ok {
		return Result{}, fmt.Errorf("%w (estimator ais, %d evals)", ErrNoFailureRegion, searchEvals)
	}

	sc := newScorer(spec, c.Batch, runtime.GOMAXPROCS(0))
	defer sc.stop()

	var a acc
	cx := make([]float64, spec.Dim) // weighted failure centroid accumulator
	budget := c.MaxSamples - searchEvals
	for a.n < budget && ctx.Err() == nil {
		batch := c.Batch
		if rem := budget - a.n; batch > rem {
			batch = rem
		}
		rows := mc.LatinHypercubeInto(rng, batch, spec.Dim, &sc.m)
		sc.score(rows, center)
		var cw float64
		for j := range cx {
			cx[j] = 0
		}
		for i, x := range rows {
			w, failed := sc.w[i], sc.fail[i]
			a.observe(w, failed)
			if failed && a.batches < aisAdaptRounds {
				cw += w
				for j, xj := range x {
					cx[j] += w * xj
				}
			}
		}
		a.batches++
		if r := a.result("ais", c, searchEvals, nil); r.Converged {
			break
		}
		if a.batches <= aisAdaptRounds && cw > 0 {
			var norm float64
			for j := range center {
				center[j] = cx[j] / cw
				norm += center[j] * center[j]
			}
			if norm = math.Sqrt(norm); norm > aisCenterCap {
				for j := range center {
					center[j] *= aisCenterCap / norm
				}
			}
		}
	}
	r := a.result("ais", c, searchEvals, center)
	observeEstimate(r)
	return r, nil
}
