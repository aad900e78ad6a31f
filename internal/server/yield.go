package server

import (
	"context"
	"math"
	"net/url"
	"strings"

	"lvf2/internal/cells"
	"lvf2/internal/fit"
	"lvf2/internal/libbuild"
	"lvf2/internal/netlist"
	"lvf2/internal/spice"
	"lvf2/internal/sta"
	"lvf2/internal/stats"
	"lvf2/internal/yield"
)

// yieldParams is the estimator-selection surface of /v1/yield, shared by
// the GET query string and the POST body: the clock target (a sigma
// multiple of the model or an absolute clock), which rung of the
// estimator ladder to run, and the CI contract to run it under.
type yieldParams struct {
	sigma     float64
	hasSigma  bool
	clock     float64
	hasClock  bool
	estimator string // "" = analytic CDF answer (no sampling)
	ci        float64
}

// defaultYieldSigma keeps the historical GET default: the paper's
// 3σ-yield.
const defaultYieldSigma = 3.0

// validateYieldParams applies the shared range checks; every failure is
// a typed 400.
func (yp *yieldParams) validate() error {
	if yp.hasSigma && (yp.sigma < 0.5 || yp.sigma > 8) {
		return badRequest("sigma %g out of range [0.5, 8]", yp.sigma)
	}
	if yp.hasSigma && yp.hasClock {
		return badRequest("sigma and clock are mutually exclusive; pick one target")
	}
	if yp.estimator != "" {
		if _, err := yield.New(yp.estimator); err != nil {
			return badRequest("unknown estimator %q (want %s)", yp.estimator, strings.Join(yield.Names, "|"))
		}
	}
	if yp.ci != 0 {
		if yp.estimator == "" {
			return badRequest("ci sets the estimator CI contract; pass estimator=%s too", strings.Join(yield.Names, "|"))
		}
		if yp.ci <= 0 || yp.ci > 0.5 {
			return badRequest("ci %g out of range (0, 0.5]", yp.ci)
		}
	}
	return nil
}

// parseYieldParams decodes the GET query surface.
func parseYieldParams(q url.Values) (yp yieldParams, err error) {
	if v := q.Get("sigma"); v != "" {
		if yp.sigma, err = parseFinite("sigma", v); err != nil {
			return yp, err
		}
		yp.hasSigma = true
	}
	if v := q.Get("clock"); v != "" {
		if yp.clock, err = parseFinite("clock", v); err != nil {
			return yp, err
		}
		yp.hasClock = true
	}
	yp.estimator = q.Get("estimator")
	if v := q.Get("ci"); v != "" {
		if yp.ci, err = parseFinite("ci", v); err != nil {
			return yp, err
		}
	}
	return yp, yp.validate()
}

// yieldEstimateDTO is the estimator-ladder answer: the estimate itself
// plus everything needed to judge it — the confidence interval, the
// estimator variance, the effective sample size and whether the CI
// contract actually closed. RelHalfWidth is omitted when no failure was
// observed (it would be infinite; the CI bounds still apply).
type yieldEstimateDTO struct {
	Estimator    string       `json:"estimator"`
	Space        string       `json:"space"` // process | latent
	FailProb     float64      `json:"fail_prob"`
	Yield        float64      `json:"yield"`
	StdErr       float64      `json:"std_err"`
	Variance     float64      `json:"variance"`
	CILo         float64      `json:"ci_lo"`
	CIHi         float64      `json:"ci_hi"`
	CILevel      float64      `json:"ci_level"`
	RelHalfWidth *float64     `json:"rel_half_width,omitempty"`
	ESS          float64      `json:"ess"`
	Samples      int          `json:"samples"`
	SearchEvals  int          `json:"search_evals,omitempty"`
	Failures     int          `json:"failures"`
	Converged    bool         `json:"converged"`
	Outputs      int          `json:"outputs,omitempty"` // POST: primary outputs combined
	Degraded     *degradedDTO `json:"degraded,omitempty"`
}

func dtoFromEstimate(r yield.Result, space string) *yieldEstimateDTO {
	dto := &yieldEstimateDTO{
		Estimator:   r.Estimator,
		Space:       space,
		FailProb:    r.FailProb,
		Yield:       r.Yield,
		StdErr:      r.StdErr,
		Variance:    r.Variance,
		CILo:        r.CI.Lo,
		CIHi:        r.CI.Hi,
		CILevel:     r.CI.Level,
		ESS:         r.ESS,
		Samples:     r.Samples,
		SearchEvals: r.SearchEvals,
		Failures:    r.Failures,
		Converged:   r.Converged,
	}
	if !math.IsInf(r.RelHalfWidth, 1) {
		rel := r.RelHalfWidth
		dto.RelHalfWidth = &rel
	}
	return dto
}

// yieldContract builds the estimator contract from request parameters
// and server limits.
func (s *Server) yieldContract(yp yieldParams) yield.Contract {
	return yield.Contract{
		RelErr:     yp.ci, // 0 = package default ±1%
		MaxSamples: s.cfg.YieldMaxSamples,
		Batch:      s.cfg.YieldBatch,
	}
}

// processSpec reconstructs the synthetic electrical model behind a
// served arc, when there is one: the cell name must resolve in the
// synthetic cell set and the related pin must map back to an arc the way
// libbuild assigns pins. The estimate is then a golden-model tail
// probability over the full spice process space — independent of the
// fitted distribution the analytic answer uses. When several arcs share
// the related pin the lowest-indexed one is taken as the pin's
// representative; the corner is the TT corner every shipped library is
// characterised at. Uploaded third-party libraries have no electrical
// model and fall back to the fitted-model latent space.
func processSpec(ra *resolvedArc, aq arcQuery, clock float64) (yield.Spec, bool) {
	ct, ok := cells.CellByName(ra.cell.Name)
	if !ok {
		return yield.Spec{}, false
	}
	pinIdx := -1
	for i, p := range libbuild.InputPins(ct.Inputs) {
		if p == ra.arc.RelatedPin {
			pinIdx = i
			break
		}
	}
	arcs := ct.Arcs()
	if pinIdx < 0 || pinIdx >= len(arcs) {
		return yield.Spec{}, false
	}
	metric := yield.MetricDelay
	if strings.Contains(aq.base, "transition") {
		metric = yield.MetricTransition
	}
	return yield.FromArc(arcs[pinIdx].Elec, spice.TTCorner(), metric, aq.slew, aq.load, clock), true
}

// estimateArcYield runs the requested estimator for a GET /v1/yield
// query. An importance-sampling rung that cannot arm (no failure region
// within its search budget) degrades to a plain-MC partial estimate —
// tagged in the response and the X-LVF2-Degraded header — whose CI is
// the honest wide bound rather than a silent failure. Deadline expiry
// mid-estimate surfaces as Converged=false with the partial CI.
func (s *Server) estimateArcYield(ctx context.Context, ra *resolvedArc, aq arcQuery, d stats.Dist, clock float64, yp yieldParams) *yieldEstimateDTO {
	spec, space := processSpec(ra, aq, clock)
	spaceName := "process"
	if !space {
		spec = yield.FromDist(d, clock)
		spaceName = "latent"
	}
	contract := s.yieldContract(yp)
	est, _ := yield.New(yp.estimator)
	res, err := est.Estimate(ctx, spec, contract)
	var deg *degradedDTO
	if err != nil {
		deg = &degradedDTO{Rung: "mc", Requested: yp.estimator, Reason: err.Error()}
		s.degradedTotal.Inc("mc")
		mcEst, _ := yield.New("mc")
		res, _ = mcEst.Estimate(ctx, spec, contract)
	}
	dto := dtoFromEstimate(res, spaceName)
	dto.Degraded = deg
	return dto
}

// estimateNetlistYield combines per-output latent-space estimates into a
// chip-level yield for one model family, under the same independence
// approximation as sta.YieldAtClock: Y = Π yᵢ, with the interval
// propagated by the delta method (hw_Y = Y·√Σ(hwᵢ/yᵢ)²). Sample spend is
// summed; the answer converges only if every output converged.
func (s *Server) estimateNetlistYield(ctx context.Context, res *sta.Result, mod *netlist.Module, fam fit.Model, clock float64, yp yieldParams) (*yieldEstimateDTO, error) {
	contract := s.yieldContract(yp)
	est, _ := yield.New(yp.estimator)
	combined := &yieldEstimateDTO{
		Estimator: yp.estimator,
		Space:     "latent",
		Yield:     1,
		Converged: true,
		CILevel:   contract.WithDefaults().Level,
	}
	var relVar float64
	relFinite := true
	for _, out := range mod.Outputs() {
		a, ok := res.Arrivals[out]
		if !ok {
			continue
		}
		v, ok := a.Vars[fam]
		if !ok || v == nil {
			return nil, badRequest("output %q has no %v arrival", out, fam)
		}
		r, err := est.Estimate(ctx, yield.FromDist(v.Dist(), clock), contract)
		if err != nil {
			// Latent specs clamp their threshold inside the searchable
			// radius, so this is unreachable in practice; fail loudly if a
			// future spec breaks that invariant.
			return nil, err
		}
		combined.Outputs++
		combined.Yield *= r.Yield
		combined.Samples += r.Samples
		combined.SearchEvals += r.SearchEvals
		combined.Failures += r.Failures
		combined.ESS += r.ESS
		combined.Converged = combined.Converged && r.Converged
		if r.Yield > 0 {
			relVar += (r.HalfWidth / r.Yield) * (r.HalfWidth / r.Yield)
		} else {
			relFinite = false
		}
	}
	if combined.Outputs == 0 {
		return nil, badRequest("no primary output arrivals")
	}
	combined.FailProb = 1 - combined.Yield
	hw := combined.Yield * math.Sqrt(relVar)
	if !relFinite {
		hw = 1
	}
	combined.StdErr = hw / zScore95(combined.CILevel)
	combined.Variance = combined.StdErr * combined.StdErr
	combined.CILo = math.Max(0, combined.FailProb-hw)
	combined.CIHi = math.Min(1, combined.FailProb+hw)
	if combined.FailProb > 0 {
		rel := hw / combined.FailProb
		combined.RelHalfWidth = &rel
	}
	return combined, nil
}

// zScore95 is the two-sided normal critical value of the level (the
// yield package computes the same internally; the netlist combiner needs
// it to back out a standard error from a propagated half-width).
func zScore95(level float64) float64 {
	return stats.StdNormQuantile(0.5 + level/2)
}
