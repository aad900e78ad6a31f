// Package cells defines the synthetic standard-cell library that stands in
// for the paper's TSMC 22nm library: the same 25 combinational cell types
// with Table 2's timing-arc counts, 8×8 slew–load characterisation grids
// (axes taken from Fig. 4), and a characterisation driver that produces
// one delay and one transition distribution per (arc, slew, load) point by
// Monte-Carlo simulation of the electrical model in internal/spice.
package cells

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"lvf2/internal/mc"
	"lvf2/internal/spice"
)

// Grid is the slew–load characterisation grid. The paper uses 8×8
// non-linearly spaced entries; the load axis values are those visible on
// Fig. 4.
type Grid struct {
	Slews []float64 // input transition times, ns
	Loads []float64 // output capacitances, pF
}

// DefaultGrid returns the 8×8 grid of the paper's library.
func DefaultGrid() Grid {
	return Grid{
		Slews: []float64{0.00123, 0.00391, 0.00928, 0.02102,
			0.05005, 0.12145, 0.29535, 0.87315},
		Loads: []float64{0.00015, 0.00722, 0.02136, 0.04965,
			0.10623, 0.21938, 0.44569, 0.89830},
	}
}

// CellType is one of the 25 standard combinational cell types.
type CellType struct {
	Name     string
	Inputs   int
	ArcCount int // number of test timing arcs (Table 2 column 2)
	// Electrical template: per-arc models are derived from it with
	// deterministic jitter (drive strengths, mechanism offsets).
	Base spice.CellElectrical
}

// Library returns the 25 cell types with the paper's arc counts.
func Library() []CellType {
	mk := func(name string, inputs, arcs int, drive, capIn float64, stackN, stackP int, modeGap float64) CellType {
		return CellType{
			Name: name, Inputs: inputs, ArcCount: arcs,
			Base: spice.CellElectrical{
				Name: name, Drive: drive, CapIn: capIn,
				StackN: stackN, StackP: stackP,
				ModeGap: modeGap, MixSens: 2.2, DiagOffset: 0, TransGain: 1.5,
			},
		}
	}
	return []CellType{
		mk("INV", 1, 24, 1.0, 0.0009, 1, 1, 0.15),
		mk("BUFF", 1, 21, 1.4, 0.0010, 1, 1, 0.12),
		mk("NAND2", 2, 57, 1.0, 0.0011, 2, 1, 0.21),
		mk("NAND3", 3, 39, 1.0, 0.0012, 3, 1, 0.24),
		mk("NAND4", 4, 28, 1.0, 0.0013, 4, 1, 0.27),
		mk("AND2", 2, 20, 1.2, 0.0011, 2, 1, 0.18),
		mk("AND3", 3, 22, 1.2, 0.0012, 3, 1, 0.19),
		mk("AND4", 4, 11, 1.2, 0.0013, 4, 1, 0.21),
		mk("NOR2", 2, 14, 0.9, 0.0011, 1, 2, 0.21),
		mk("NOR3", 3, 13, 0.9, 0.0012, 1, 3, 0.24),
		mk("NOR4", 4, 25, 0.9, 0.0013, 1, 4, 0.27),
		mk("OR2", 2, 17, 1.1, 0.0011, 1, 2, 0.18),
		mk("OR3", 3, 12, 1.1, 0.0012, 1, 3, 0.19),
		mk("OR4", 4, 23, 1.1, 0.0013, 1, 4, 0.21),
		mk("XOR2", 2, 32, 0.8, 0.0015, 2, 2, 0.25),
		mk("XOR3", 3, 49, 0.8, 0.0017, 2, 2, 0.26),
		mk("XOR4", 4, 74, 0.8, 0.0019, 3, 3, 0.28),
		mk("XNOR2", 2, 30, 0.8, 0.0015, 2, 2, 0.25),
		mk("XNOR3", 3, 48, 0.8, 0.0017, 2, 2, 0.26),
		mk("XNOR4", 4, 45, 0.8, 0.0019, 3, 3, 0.28),
		mk("MUX2", 3, 31, 1.0, 0.0013, 2, 2, 0.22),
		mk("MUX3", 5, 40, 1.0, 0.0015, 2, 2, 0.23),
		mk("MUX4", 6, 40, 1.0, 0.0016, 3, 3, 0.23),
		mk("FA", 3, 25, 0.9, 0.0018, 3, 3, 0.26),
		mk("HA", 2, 7, 0.9, 0.0015, 2, 2, 0.22),
	}
}

// CellByName finds a cell type in the default library.
func CellByName(name string) (CellType, bool) {
	for _, c := range Library() {
		if c.Name == name {
			return c, true
		}
	}
	return CellType{}, false
}

// Arc is one concrete timing arc of a cell: an input-pin to output-pin
// path under one side-input condition, with its own electrical model.
type Arc struct {
	Cell  string
	Index int
	Label string
	Elec  spice.CellElectrical
}

// driveSteps are the drive-strength variants cycled across a type's arcs
// (X1/X2/X4-style sizing).
var driveSteps = []float64{0.8, 1.0, 1.5, 2.0, 3.0}

// Arcs derives the cell's ArcCount timing arcs. Per-arc electrical
// parameters are jittered deterministically (seeded by cell name and arc
// index) so every arc is distinct but the library is fully reproducible.
func (c CellType) Arcs() []Arc {
	arcs := make([]Arc, c.ArcCount)
	for i := range arcs {
		e := c.Base
		rng := mc.NewRNG(arcSeed(c.Name, i))
		e.Drive *= driveSteps[i%len(driveSteps)] * (0.95 + 0.1*rng.Float64())
		// Mechanism confrontation moves around the grid per arc; offsets
		// beyond ±1.6 leave some arcs essentially unimodal everywhere.
		e.DiagOffset = -2.0 + 4.0*rng.Float64()
		e.ModeGap *= 0.6 + 0.9*rng.Float64()
		e.MixSens = 1.8 + 0.8*rng.Float64()
		e.TransGain = 1.2 + 0.6*rng.Float64()
		arcs[i] = Arc{
			Cell:  c.Name,
			Index: i,
			Label: fmt.Sprintf("%s/arc%02d", c.Name, i),
			Elec:  e,
		}
	}
	return arcs
}

func arcSeed(name string, idx int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	fmt.Fprintf(h, "/%d", idx)
	return h.Sum64()
}

// Kind distinguishes the two characterised quantities.
type Kind int

const (
	// Delay is the input-to-output propagation delay distribution.
	Delay Kind = iota
	// Transition is the output transition-time distribution.
	Transition
)

// String names the kind as in the paper's tables.
func (k Kind) String() string {
	if k == Delay {
		return "Delay"
	}
	return "Transition"
}

// Distribution is one characterised timing distribution: the MC samples of
// one (arc, slew, load, kind) point.
type Distribution struct {
	Arc      Arc
	SlewIdx  int
	LoadIdx  int
	Slew     float64
	Load     float64
	Kind     Kind
	Samples  []float64
	NomDelay float64 // nominal (variation-free) value of this kind
}

// EvalFunc is the Monte-Carlo evaluator seam: it produces the sample sets
// of one (arc, slew, load) grid point. The default evaluates the arc's
// electrical model; fault-injection harnesses substitute contaminated or
// panicking evaluators to exercise the pipeline's failure paths.
type EvalFunc func(arc Arc, corner spice.Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s spice.Sampler) spice.MCResult

// DefaultEval evaluates the arc's own electrical model.
func DefaultEval(arc Arc, corner spice.Corner, rng *mc.RNG, n int, slewNS, loadPF float64, s spice.Sampler) spice.MCResult {
	return arc.Elec.CharacterizeWith(corner, rng, n, slewNS, loadPF, s)
}

// CharConfig controls a characterisation run. The paper's full scale is
// Samples=50000 over all 64 grid points of every arc; the reduced defaults
// keep test runs fast while exercising identical code paths.
type CharConfig struct {
	Corner  spice.Corner
	Grid    Grid
	Samples int
	Seed    uint64
	// GridStride subsamples the grid (1 = all 8×8 points, 4 = 2×2).
	GridStride int
	// Sampler selects the process-space sampling scheme (default LHS,
	// the paper's choice).
	Sampler spice.Sampler
	// Workers bounds how many arcs libbuild.Build characterises at once
	// (default GOMAXPROCS).
	Workers int
	// ArcTimeout bounds the wall time of a single arc's characterisation
	// (0 = none). Enforcement is cooperative at grid-point boundaries.
	ArcTimeout time.Duration
	// Eval overrides the Monte-Carlo evaluator. When nil the arc's own
	// electrical model is streamed through one reusable sample plan per
	// arc (bit-identical to DefaultEval, without the per-point matrix
	// pool round-trips); fault-injection harnesses substitute
	// contaminated or panicking evaluators here.
	Eval EvalFunc
	// Skip elides grid points before their Monte-Carlo evaluation runs.
	// It is the checkpoint-resume seam: a resumed run installs a filter
	// that skips every (slew, load) point whose units are already
	// journaled, so completed work is never recomputed. nil visits every
	// point.
	Skip func(arc Arc, slewIdx, loadIdx int) bool
}

// WithDefaults fills zero fields.
func (c CharConfig) WithDefaults() CharConfig {
	if c.Corner == (spice.Corner{}) {
		c.Corner = spice.TTCorner()
	}
	if len(c.Grid.Slews) == 0 {
		c.Grid = DefaultGrid()
	}
	if c.Samples <= 0 {
		c.Samples = 5000
	}
	if c.GridStride <= 0 {
		c.GridStride = 1
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	return c
}

// GridPoint is one visited coordinate of the characterisation sweep: the
// raw grid indices (the checkpoint-key and RNG-seed domain) and the
// dense matrix indices (raw index / stride — the emitted table domain).
type GridPoint struct {
	SlewIdx, LoadIdx int
	Row, Col         int
}

// SweepPoints enumerates the visited (slew, load) coordinates of the
// characterisation grid in the fixed deterministic sweep order: row-major
// from the nominal corner (lowest slew, lowest load), load index varying
// fastest, honouring GridStride. Every layer — characterisation, fitting,
// checkpoint planning and distributed leasing — iterates exactly this
// sequence; a single shared order is what lets warm-started fits seed
// from an already-visited neighbour and still produce bit-identical
// libraries across Workers counts, resume, and distribution.
func (c CharConfig) SweepPoints() []GridPoint {
	stride := c.GridStride
	if stride <= 0 {
		stride = 1
	}
	grid := c.Grid
	if len(grid.Slews) == 0 {
		grid = DefaultGrid()
	}
	var pts []GridPoint
	for si := 0; si < len(grid.Slews); si += stride {
		for li := 0; li < len(grid.Loads); li += stride {
			pts = append(pts, GridPoint{
				SlewIdx: si, LoadIdx: li,
				Row: si / stride, Col: li / stride,
			})
		}
	}
	return pts
}

// CharacterizeArc runs the MC characterisation of one arc over the grid,
// returning a delay and a transition distribution per visited point.
func CharacterizeArc(cfg CharConfig, arc Arc) []Distribution {
	out, _ := CharacterizeArcCtx(context.Background(), cfg, arc)
	return out
}

// CharacterizeArcCtx is CharacterizeArc with cooperative cancellation: the
// context is checked at every grid point and its error returned alongside
// the distributions characterised so far.
func CharacterizeArcCtx(ctx context.Context, cfg CharConfig, arc Arc) ([]Distribution, error) {
	cfg = cfg.WithDefaults()
	var out []Distribution
	var stream spice.ArcStream
	for _, p := range cfg.SweepPoints() {
		si, li := p.SlewIdx, p.LoadIdx
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if cfg.Skip != nil && cfg.Skip(arc, si, li) {
			continue
		}
		slew, load := cfg.Grid.Slews[si], cfg.Grid.Loads[li]
		rng := mc.NewRNG(cfg.Seed ^ arcSeed(arc.Label, si*8+li))
		var res spice.MCResult
		if cfg.Eval != nil {
			res = cfg.Eval(arc, cfg.Corner, rng, cfg.Samples, slew, load, cfg.Sampler)
		} else {
			res = arc.Elec.CharacterizeStream(cfg.Corner, rng, cfg.Samples, slew, load, cfg.Sampler, &stream)
		}
		nd, nt := arc.Elec.NominalEval(cfg.Corner, slew, load)
		out = append(out,
			Distribution{
				Arc: arc, SlewIdx: si, LoadIdx: li, Slew: slew, Load: load,
				Kind: Delay, Samples: res.Delays, NomDelay: nd,
			},
			Distribution{
				Arc: arc, SlewIdx: si, LoadIdx: li, Slew: slew, Load: load,
				Kind: Transition, Samples: res.Transitions, NomDelay: nt,
			})
	}
	return out, nil
}
