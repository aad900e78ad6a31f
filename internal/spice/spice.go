// Package spice is the project's substitute for the paper's HSPICE
// Monte-Carlo characterisation of TSMC 22nm standard cells (proprietary
// and unavailable): an analytic, variation-aware electrical model that
// exposes the same interface a SPICE MC run would — draw a process
// parameter vector, evaluate one timing arc at one slew–load point, get a
// (delay, transition) pair.
//
// The model combines
//
//   - an alpha-power-law MOSFET on-current I ∝ mob·drive·(V_DD−V_th)^α,
//     whose (V_DD−V_th)^−α nonlinearity turns Gaussian threshold-voltage
//     variation into the skewed delay distributions LVF was designed for;
//   - a stack factor raising both the nominal V_th and its sensitivity
//     for multi-input gates;
//   - an input-slope term coupling slew to V_th variation; and
//   - a *dual-mechanism regime switch*: each arc has two competing
//     conduction mechanisms (an N-network- and a P-network-dominated
//     one) and the process vector decides which wins. This is the paper's
//     own explanation for the multi-Gaussian phenomenon ("two variations
//     evenly matched against each other", §4.3). The confrontation point
//     moves with log(slew)−log(load), which reproduces the diagonal
//     accuracy pattern of Fig. 4.
//
// All delays and transitions are in nanoseconds, loads in picofarads.
package spice

import (
	"math"

	"lvf2/internal/mc"
)

// NumParams is the dimensionality of the process-parameter space:
// ΔVthN, ΔVthP, ΔLen, ΔMobN, ΔMobP, ΔEnv (all standardised N(0,1)).
const NumParams = 6

// Params is one process-variation sample in units of sigma.
type Params struct {
	VthN float64 // NMOS threshold-voltage deviation
	VthP float64 // PMOS threshold-voltage deviation
	Len  float64 // channel-length deviation
	MobN float64 // NMOS mobility deviation
	MobP float64 // PMOS mobility deviation
	Env  float64 // residual environmental noise (local IR drop etc.)
}

// ParamsFromVector builds Params from a standardised sample row.
func ParamsFromVector(v []float64) Params {
	var p Params
	if len(v) > 0 {
		p.VthN = v[0]
	}
	if len(v) > 1 {
		p.VthP = v[1]
	}
	if len(v) > 2 {
		p.Len = v[2]
	}
	if len(v) > 3 {
		p.MobN = v[3]
	}
	if len(v) > 4 {
		p.MobP = v[4]
	}
	if len(v) > 5 {
		p.Env = v[5]
	}
	return p
}

// Corner holds the PVT corner and variation magnitudes. The paper's
// experiments run at TTGlobal_LocalMC, 0.8 V, 25 °C.
type Corner struct {
	VDD      float64 // supply voltage, V
	TempC    float64 // temperature, °C
	VthN0    float64 // nominal NMOS threshold, V
	VthP0    float64 // nominal PMOS threshold (magnitude), V
	Alpha    float64 // alpha-power-law velocity-saturation exponent
	SigmaVth float64 // local V_th sigma, V
	SigmaMob float64 // relative mobility sigma
	SigmaLen float64 // relative channel-length sigma
	SigmaEnv float64 // relative residual noise sigma
}

// TTCorner returns the typical corner used throughout the paper's
// evaluation (0.8 V, 25 °C, local-MC variations on).
func TTCorner() Corner {
	return Corner{
		VDD:      0.8,
		TempC:    25,
		VthN0:    0.33,
		VthP0:    0.31,
		Alpha:    1.35,
		SigmaVth: 0.020,
		SigmaMob: 0.032,
		SigmaLen: 0.018,
		SigmaEnv: 0.009,
	}
}

// CellElectrical describes one cell's electrical behaviour for the
// analytic model. Cells in internal/cells embed one of these per arc.
type CellElectrical struct {
	Name   string
	Drive  float64 // output drive relative to a unit inverter
	CapIn  float64 // input pin capacitance, pF
	StackN int     // NMOS stack depth (series transistors)
	StackP int     // PMOS stack depth

	// Dual-mechanism regime-switch parameters.
	ModeGap    float64 // relative delay separation of the two mechanisms
	MixSens    float64 // confrontation sharpness along the slew–load diagonal
	DiagOffset float64 // where (in log10 slew−load units) the mechanisms tie
	TransGain  float64 // extra mode separation in transition vs delay
}

const (
	kDelay     = 2.4   // ns·(drive units)/(pF·V^(1−α)) load-to-delay gain
	kTransMult = 1.9   // transition time / delay load-term ratio
	kSlewDelay = 0.11  // slew feed-through into delay
	kSlewTrans = 0.16  // slew feed-through into transition
	modeKappa  = 0.22  // logistic sharpness of the regime switch (σ units)
	minVeff    = 0.08  // clamp for the effective overdrive voltage, V
	envGainD   = 0.015 // residual noise gain on delay
	envGainT   = 0.022 // residual noise gain on transition
)

// stackVth returns the effective nominal threshold and its sensitivity
// multiplier for a stack of depth n: stacking raises both the body-effect
// threshold and the variance contribution (√n uncorrelated devices).
func stackVth(vth0 float64, n int) (vthEff, sensMult float64) {
	if n < 1 {
		n = 1
	}
	return vth0 * (1 + 0.05*float64(n-1)), math.Sqrt(float64(n))
}

// Point is one arc at one corner and slew–load point, with the terms of
// the electrical model that do not depend on the process sample — the
// stacked thresholds and their sensitivities, the regime-switch bias —
// computed once. Yield estimators and characterisation sweeps evaluate
// millions of samples at one point. A Point is read-only after At, so
// one value may be evaluated from several goroutines at once.
type Point struct {
	c              Corner
	e              CellElectrical
	slewNS, loadPF float64
	vthA0, sensA   float64 // mechanism A (N network) stacked threshold
	vthB0, sensB   float64 // mechanism B (P network) stacked threshold
	bias           float64 // deterministic part of the confrontation variable
}

// At prepares the arc at one corner and slew–load point. slewNS is the
// input transition in ns; loadPF the output load in pF.
func (e CellElectrical) At(c Corner, slewNS, loadPF float64) Point {
	pt := Point{c: c, e: e, slewNS: slewNS, loadPF: loadPF}
	pt.vthA0, pt.sensA = stackVth(c.VthN0, e.StackN)
	pt.vthB0, pt.sensB = stackVth(c.VthP0, e.StackP)
	// The confrontation variable's deterministic part moves along the
	// log(slew)−log(load) diagonal.
	pt.bias = e.MixSens * (math.Log10(slewNS/0.03) - math.Log10(loadPF/0.02) + e.DiagOffset)
	return pt
}

// mechanismDelay evaluates one conduction mechanism's load-dependent delay
// core: k·C_L·V_DD / (drive·mob·(V_DD−V_th)^α), alpha-power law.
func mechanismDelay(c Corner, drive, mob, vthEff float64, loadPF float64) float64 {
	veff := c.VDD - vthEff
	if veff < minVeff {
		veff = minVeff
	}
	i := drive * mob * math.Pow(veff, c.Alpha)
	return kDelay * loadPF * c.VDD / i
}

// Eval computes (delay, transition) in ns for one process sample at the
// prepared point.
func (pt Point) Eval(p Params) (delay, trans float64) {
	c, e, slewNS, loadPF := &pt.c, &pt.e, pt.slewNS, pt.loadPF

	// Mechanism A: N-network dominated.
	vthA := pt.vthA0 + c.SigmaVth*pt.sensA*p.VthN
	mobA := (1 + c.SigmaMob*p.MobN) / (1 + c.SigmaLen*p.Len)
	dA := mechanismDelay(*c, e.Drive, mobA, vthA, loadPF)

	// Mechanism B: P-network dominated, systematically slower by ModeGap.
	vthB := pt.vthB0 + c.SigmaVth*pt.sensB*p.VthP
	mobB := (1 + c.SigmaMob*p.MobP) / (1 + c.SigmaLen*p.Len)
	dB := mechanismDelay(*c, e.Drive*0.92, mobB, vthB, loadPF) * (1 + e.ModeGap)

	// Input-slope terms: slew couples to the (variation-dependent)
	// switching threshold.
	slopeA := slewNS * (kSlewDelay + 0.28*vthA/c.VDD)
	slopeB := slewNS * (kSlewDelay + 0.28*vthB/c.VDD)

	// Regime switch: which mechanism dominates depends on the
	// confrontation variable M.
	m := (p.VthN-p.VthP)/sqrt2 + pt.bias
	s := 1 / (1 + math.Exp(-m/modeKappa))

	dTotA := dA + slopeA
	dTotB := dB + slopeB
	delay = (1-s)*dTotA + s*dTotB
	delay *= 1 + envGainD*p.Env

	// Transition time: same physics, larger load gain, larger mode
	// separation (the paper observes multi-Gaussian more often in
	// transition distributions).
	tA := kTransMult*dA + slewNS*kSlewTrans
	tB := kTransMult*dB*(1+e.TransGain*e.ModeGap) + slewNS*kSlewTrans
	trans = (1-s)*tA + s*tB
	trans *= 1 + envGainT*p.Env

	return delay, trans
}

// Eval computes (delay, transition) in ns for one process sample at one
// slew–load point. slewNS is the input transition in ns; loadPF the output
// load in pF. Callers evaluating many samples at one point prepare it
// once with At.
func (e CellElectrical) Eval(c Corner, p Params, slewNS, loadPF float64) (delay, trans float64) {
	return e.At(c, slewNS, loadPF).Eval(p)
}

// NominalEval evaluates the arc at the process nominal (all deviations 0).
func (e CellElectrical) NominalEval(c Corner, slewNS, loadPF float64) (delay, trans float64) {
	return e.Eval(c, Params{}, slewNS, loadPF)
}

// MCResult holds the Monte-Carlo sample vectors of one characterisation
// point.
type MCResult struct {
	Delays      []float64
	Transitions []float64
}

// Sampler selects the process-space sampling scheme.
type Sampler int

// Sampling schemes for Monte-Carlo characterisation.
const (
	// SamplerLHS is Latin Hypercube Sampling — the paper's scheme.
	SamplerLHS Sampler = iota
	// SamplerSobol is randomised quasi-Monte-Carlo (Sobol with a
	// Cranley-Patterson rotation).
	SamplerSobol
	// SamplerIID is plain Monte Carlo (the variance baseline).
	SamplerIID
)

// Characterize runs an n-sample LHS Monte-Carlo characterisation of the
// arc at one slew–load point, mirroring the paper's "LHS SPICE MC
// simulation with all variations turned on".
func (e CellElectrical) Characterize(c Corner, rng *mc.RNG, n int, slewNS, loadPF float64) MCResult {
	return e.CharacterizeWith(c, rng, n, slewNS, loadPF, SamplerLHS)
}

// samplePool recycles the process-sample matrices across characterisation
// calls: a library characterisation evaluates thousands of slew–load grid
// points, each drawing an n×NumParams block that is dead as soon as the
// delays are computed. Each pool worker grabs its own matrix, so the
// concurrent CharacterizeLibrary path reuses one buffer per worker.
var samplePool mc.MatrixPool

// CharacterizeWith runs the characterisation with an explicit sampling
// scheme.
func (e CellElectrical) CharacterizeWith(c Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s Sampler) MCResult {
	m := samplePool.Get()
	defer samplePool.Put(m)
	return e.characterizeInto(c, rng, n, slewNS, loadPF, s, m)
}

// ArcStream plans one arc's grid sweep: a single reusable sample matrix
// streams every (slew, load) entry of the arc through one shaped plan,
// instead of re-planning (pool round-trip, row re-slicing) at each of
// the 64 grid points. The zero value is ready. Not safe for concurrent
// use — each characterisation worker owns one per arc.
type ArcStream struct{ m mc.Matrix }

// CharacterizeStream evaluates one grid entry of an arc sweep through
// the stream's plan. The drawn samples — and therefore the resulting
// delay/transition vectors — are bit-identical to CharacterizeWith with
// the same RNG state: only the buffer recycling differs.
func (e CellElectrical) CharacterizeStream(c Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s Sampler, st *ArcStream) MCResult {
	return e.characterizeInto(c, rng, n, slewNS, loadPF, s, &st.m)
}

// characterizeInto draws the process-sample block into m and evaluates
// the arc at every sample. Only the output vectors are freshly
// allocated; they are retained by the caller as the characterised
// distribution.
func (e CellElectrical) characterizeInto(c Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s Sampler, m *mc.Matrix) MCResult {
	var pts [][]float64
	switch s {
	case SamplerSobol:
		pts = mc.GaussianSobolInto(rng, n, NumParams, m)
	case SamplerIID:
		pts = mc.GaussianIIDInto(rng, n, NumParams, m)
	default:
		pts = mc.GaussianLHSInto(rng, n, NumParams, m)
	}
	res := MCResult{
		Delays:      make([]float64, n),
		Transitions: make([]float64, n),
	}
	pt := e.At(c, slewNS, loadPF)
	for i, row := range pts {
		d, t := pt.Eval(ParamsFromVector(row))
		res.Delays[i] = d
		res.Transitions[i] = t
	}
	return res
}

// SampleParams draws n LHS process vectors (shared across arcs when the
// same physical sample must be propagated through a path).
func SampleParams(rng *mc.RNG, n int) []Params {
	pts := mc.GaussianLHS(rng, n, NumParams)
	out := make([]Params, n)
	for i, row := range pts {
		out[i] = ParamsFromVector(row)
	}
	return out
}

const sqrt2 = 1.4142135623730951
