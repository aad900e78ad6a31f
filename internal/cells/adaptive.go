package cells

import (
	"math"

	"lvf2/internal/mc"
	"lvf2/internal/stats"
)

// Adaptive characterisation — the application the paper anticipates in
// §4.3/§5: "assuming such an accuracy pattern can provide significant
// insight to speed up the statistical characterisation that includes MC
// simulations across multiple slew-load pairs". Points whose distribution
// is multi-Gaussian need many samples for a faithful LVF² fit; unimodal
// points don't. A cheap pilot pass estimates each grid point's
// non-Gaussianity, the estimate is reinforced along slew–load diagonals
// (the paper's observed regularity), and the remaining sample budget is
// allocated proportionally.

// AdaptiveConfig controls the two-pass characterisation.
type AdaptiveConfig struct {
	CharConfig
	// PilotSamples per grid point in the first pass (default 400).
	PilotSamples int
	// TotalBudget is the total MC sample count across all grid points for
	// the second pass (default 64 × Samples of the base config).
	TotalBudget int
	// MinSamples floors the second-pass allocation per point (default
	// PilotSamples).
	MinSamples int
}

// WithDefaults fills zero fields.
func (c AdaptiveConfig) WithDefaults() AdaptiveConfig {
	c.CharConfig = c.CharConfig.WithDefaults()
	if c.PilotSamples <= 0 {
		c.PilotSamples = 400
	}
	if c.TotalBudget <= 0 {
		c.TotalBudget = len(c.CharConfig.SweepPoints()) * c.Samples
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.PilotSamples
	}
	return c
}

// bimodalityScore maps sample moments to a non-Gaussianity indicator.
// The LVF fit matches three moments exactly, so its residual error — and
// hence the value of extra characterisation effort — is predicted by the
// fourth moment: the gap between the sample kurtosis and the kurtosis the
// moment-matched skew-normal implies. Sarle's bimodality coefficient is
// blended in to also catch platykurtic two-peak shapes whose kurtosis gap
// is large and of known sign. A floor keeps every point funded.
func bimodalityScore(m stats.SampleMoments) float64 {
	if m.Kurtosis <= 0 {
		return 1
	}
	snImplied := stats.SNFromMoments(0, 1, m.Skewness)
	gap := math.Abs(m.Kurtosis - (snImplied.ExcessKurtosis() + 3))
	// Subtract the pilot sampling noise floor (SE of kurtosis ≈ √(24/n)).
	if m.N > 0 {
		gap -= 2 * math.Sqrt(24/float64(m.N))
	}
	if gap < 0 {
		gap = 0
	}
	return gap + 0.01
}

// AdaptiveAllocation is the per-point outcome of the pilot pass.
type AdaptiveAllocation struct {
	SlewIdx, LoadIdx int
	Score            float64 // smoothed non-Gaussianity
	Samples          int     // second-pass budget for this point
}

// PlanAdaptive runs the pilot pass for one arc and returns the budget
// allocation. Scores are reinforced along the (i−j) diagonals before
// allocation, exploiting the paper's observed diagonal regularity: a
// point's neighbours at (i±1, j±1) share its confrontation state even
// when the pilot sample was too small to show it.
func PlanAdaptive(cfg AdaptiveConfig, arc Arc) []AdaptiveAllocation {
	cfg = cfg.WithDefaults()
	pilotCfg := cfg.CharConfig
	pilotCfg.Samples = cfg.PilotSamples
	pilotCfg.Seed = cfg.Seed ^ 0xAD4F71

	type point struct {
		si, li int
		score  float64
	}
	idx := map[[2]int]int{}
	var pts []point
	for _, d := range CharacterizeArc(pilotCfg, arc) {
		if d.Kind != Delay {
			continue
		}
		m := stats.Moments(d.Samples)
		idx[[2]int{d.SlewIdx, d.LoadIdx}] = len(pts)
		pts = append(pts, point{si: d.SlewIdx, li: d.LoadIdx, score: bimodalityScore(m)})
	}

	// Diagonal reinforcement: blend with the mean of the (i±s, j±s)
	// neighbours (s = stride).
	s := cfg.GridStride
	smoothed := make([]float64, len(pts))
	for k, p := range pts {
		var nb []float64
		if q, ok := idx[[2]int{p.si - s, p.li - s}]; ok {
			nb = append(nb, pts[q].score)
		}
		if q, ok := idx[[2]int{p.si + s, p.li + s}]; ok {
			nb = append(nb, pts[q].score)
		}
		smoothed[k] = p.score
		if len(nb) > 0 {
			var mean float64
			for _, v := range nb {
				mean += v
			}
			mean /= float64(len(nb))
			if blended := 0.6*p.score + 0.4*mean; blended > smoothed[k] {
				smoothed[k] = blended
			}
		}
	}

	var total float64
	for _, v := range smoothed {
		total += v
	}
	spare := cfg.TotalBudget - cfg.MinSamples*len(pts)
	if spare < 0 {
		spare = 0
	}
	out := make([]AdaptiveAllocation, len(pts))
	for k, p := range pts {
		extra := 0
		if total > 0 {
			extra = int(math.Round(float64(spare) * smoothed[k] / total))
		}
		out[k] = AdaptiveAllocation{
			SlewIdx: p.si, LoadIdx: p.li,
			Score:   smoothed[k],
			Samples: cfg.MinSamples + extra,
		}
	}
	return out
}

// AdaptiveCharacterizeArc runs the full two-pass flow and returns the
// second-pass distributions (delay and transition per point, sized by the
// allocation) together with the plan.
func AdaptiveCharacterizeArc(cfg AdaptiveConfig, arc Arc) ([]Distribution, []AdaptiveAllocation) {
	cfg = cfg.WithDefaults()
	plan := PlanAdaptive(cfg, arc)
	var out []Distribution
	for _, a := range plan {
		slew := cfg.Grid.Slews[a.SlewIdx]
		load := cfg.Grid.Loads[a.LoadIdx]
		rng := mc.NewRNG(cfg.Seed ^ arcSeed(arc.Label, 4096+a.SlewIdx*8+a.LoadIdx))
		res := arc.Elec.Characterize(cfg.Corner, rng, a.Samples, slew, load)
		nd, nt := arc.Elec.NominalEval(cfg.Corner, slew, load)
		out = append(out,
			Distribution{
				Arc: arc, SlewIdx: a.SlewIdx, LoadIdx: a.LoadIdx,
				Slew: slew, Load: load, Kind: Delay,
				Samples: res.Delays, NomDelay: nd,
			},
			Distribution{
				Arc: arc, SlewIdx: a.SlewIdx, LoadIdx: a.LoadIdx,
				Slew: slew, Load: load, Kind: Transition,
				Samples: res.Transitions, NomDelay: nt,
			})
	}
	return out, plan
}
