// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic substrate:
//
//	Table 1 / Fig. 3 — five non-Gaussian scenarios, model fits and
//	                   binning error reduction;
//	Table 2          — the 25-type standard-cell library sweep with
//	                   delay/transition binning and 3σ-yield reductions;
//	Fig. 4           — the 8×8 slew–load CDF-RMSE-reduction heat map and
//	                   its diagonal multi-Gaussian pattern;
//	Fig. 5           — binning error reduction along the 16-bit carry
//	                   adder and 6-stage H-tree critical paths.
//
// Absolute values depend on the synthetic electrical model; the paper's
// qualitative shape (who wins, by what order, where it decays) is the
// reproduction target. See EXPERIMENTS.md for the recorded comparison.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lvf2/internal/binning"
	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/fit"
	"lvf2/internal/mc"
	"lvf2/internal/pool"
	"lvf2/internal/spice"
	"lvf2/internal/stats"
)

// Config controls experiment scale. Zero values choose reduced defaults
// that keep `go test` fast; PaperScale returns the full-size settings.
type Config struct {
	Samples int     // MC samples per distribution (paper: 50000)
	Seed    uint64  // base RNG seed
	Cap     float64 // error-reduction cap when aggregating (default 100)
	FitOpts fit.Options
	Workers int // parallel fitting workers (default NumCPU)
	// Models selects the comparison set (default fit.AllModels, the
	// paper's four; fit.ExtendedModels adds the LN/LSN prior-work models).
	Models []fit.Model
	// Repeats averages Fig. 5 reductions over this many independent
	// seeds (default 1).
	Repeats int
	// Checkpoint, when non-nil, journals every Table 1/Table 2 work unit
	// so an interrupted sweep resumes instead of restarting. Open it with
	// the matching Table1Fingerprint/Table2Fingerprint.
	Checkpoint *checkpoint.Journal
}

// WithDefaults fills zero fields with the reduced defaults.
func (c Config) WithDefaults() Config {
	if c.Samples <= 0 {
		c.Samples = 4000
	}
	if c.Seed == 0 {
		c.Seed = 0xC0FFEE
	}
	if c.Cap <= 0 {
		c.Cap = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if len(c.Models) == 0 {
		c.Models = fit.AllModels
	}
	return c
}

// PaperScale returns the full-size configuration (50k samples, as in the
// paper). Expect minutes of runtime for Table 2 at this scale.
func PaperScale() Config {
	return Config{Samples: 50000}.WithDefaults()
}

// ModelEval bundles one fitted model's distribution and metrics.
type ModelEval struct {
	Dist    stats.Dist
	Metrics binning.Metrics
	Err     error
}

// EvaluateAll fits all four paper models to the samples and scores each
// against the empirical golden distribution.
func EvaluateAll(xs []float64, o fit.Options) (map[fit.Model]ModelEval, *stats.Empirical) {
	return EvaluateModels(xs, fit.AllModels, o)
}

// EvaluateModels fits an arbitrary comparison set.
func EvaluateModels(xs []float64, models []fit.Model, o fit.Options) (map[fit.Model]ModelEval, *stats.Empirical) {
	emp := stats.NewEmpirical(xs)
	out := make(map[fit.Model]ModelEval, len(models))
	for _, m := range models {
		t0 := time.Now()
		r, err := fit.Fit(m, xs, o)
		observeFit(m, t0)
		if err != nil {
			out[m] = ModelEval{Err: err}
			continue
		}
		out[m] = ModelEval{Dist: r.Dist, Metrics: binning.Evaluate(r.Dist, emp)}
	}
	return out, emp
}

// reduction computes the eq. (12) ratio of a model metric against the LVF
// baseline, capped for aggregation.
func (c Config) reduction(result, baseline float64) float64 {
	return binning.Cap(binning.ErrorReduction(baseline, result), c.Cap)
}

// ---------------------------------------------------------------- Table 1

// ScenarioResult is one row of Table 1 plus the fitted curves of Fig. 3.
type ScenarioResult struct {
	Scenario spice.Scenario
	Golden   *stats.Empirical
	Evals    map[fit.Model]ModelEval
	// BinReduction is the binning error reduction vs LVF (Table 1).
	BinReduction map[fit.Model]float64
	// Restored reports the row was replayed from a checkpoint journal:
	// BinReduction is exact, but the golden samples and fitted curves
	// were not recomputed, so Golden and Evals are nil (Fig. 3 renderers
	// skip such rows).
	Restored bool
}

// Table1 runs the five-scenario assessment.
func Table1(cfg Config) ([]ScenarioResult, error) {
	return Table1Ctx(context.Background(), cfg)
}

// Table1Ctx is Table1 with cooperative cancellation. Scenario fits run on
// a panic-hardened worker pool; a scenario whose fit fails or panics is
// quarantined as an empty row instead of killing the process, and
// cancelling ctx stops dispatch promptly with context.Canceled.
func Table1Ctx(ctx context.Context, cfg Config) ([]ScenarioResult, error) {
	cfg = cfg.WithDefaults()
	scenarios, err := spice.Scenarios()
	if err != nil {
		return nil, err
	}
	out := make([]ScenarioResult, len(scenarios))
	labels := make([]string, len(scenarios))
	for i, sc := range scenarios {
		labels[i] = "table1/" + sc.Name
	}
	err = pool.ForEachLabeled(ctx, pool.Options{Workers: cfg.Workers}, labels,
		func(tctx context.Context, i int) error {
			sc := scenarios[i]
			k := checkpoint.Key{Cell: "experiments", Pin: "table1", Arc: sc.Name, Slew: i, Kind: "scenario"}
			var res ScenarioResult
			unit, uerr := cfg.Checkpoint.Do(tctx, k, func(context.Context) ([]byte, error) {
				rng := mc.NewRNG(cfg.Seed + uint64(i)*7919)
				xs := sc.GoldenSamples(rng, cfg.Samples)
				evals, emp := EvaluateModels(xs, cfg.Models, cfg.FitOpts)
				res = ScenarioResult{
					Scenario:     sc,
					Golden:       emp,
					Evals:        evals,
					BinReduction: make(map[fit.Model]float64, len(evals)),
				}
				base := evals[fit.ModelLVF].Metrics
				for m, e := range evals {
					if e.Err != nil {
						continue
					}
					res.BinReduction[m] = cfg.reduction(e.Metrics.BinErr, base.BinErr)
				}
				scenariosTotal.Inc()
				return encodeReductions1(res.BinReduction), nil
			}, noReductions)
			if uerr != nil {
				return uerr
			}
			if !unit.Restored && !unit.Quarantined {
				out[i] = res
				return nil
			}
			// A restored row, or a poison scenario whose empty salvage
			// renders as an empty row so the other four still render.
			red, derr := decodeReductions1(unit.Payload)
			if derr != nil {
				return fmt.Errorf("experiments: unit %s payload: %w", k, derr)
			}
			out[i] = ScenarioResult{Scenario: sc, BinReduction: red, Restored: unit.Restored}
			return nil
		})
	if err != nil {
		return nil, err
	}
	restored := 0
	for i := range out {
		if out[i].Restored {
			restored++
		}
	}
	cfg.Checkpoint.SetResumeSkipRatio(restored, len(scenarios))
	return out, nil
}

// RenderTable1 formats the scenario assessment like the paper's Table 1.
// Any model present in the rows beyond the paper's four (e.g. LN/LSN from
// the extended set) gets an extra column.
func RenderTable1(rows []ScenarioResult) string {
	order := []fit.Model{fit.ModelLVF2, fit.ModelNorm2, fit.ModelLESN}
	if len(rows) > 0 {
		for _, m := range []fit.Model{fit.ModelLN, fit.ModelLSN} {
			if _, ok := rows[0].BinReduction[m]; ok {
				order = append(order, m)
			}
		}
	}
	order = append(order, fit.ModelLVF)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Scenarios Assessment among Models (binning error reduction, x)\n")
	fmt.Fprintf(&b, "%-14s", "Scenario")
	for _, m := range order {
		fmt.Fprintf(&b, " %8s", m)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Scenario.Name)
		for _, m := range order {
			fmt.Fprintf(&b, " %8.2f", r.BinReduction[m])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig3CSV renders the fitted PDFs of every scenario as CSV series
// (x, golden KDE, LVF2, Norm2, LESN, LVF) — the data behind Fig. 3.
func Fig3CSV(rows []ScenarioResult, points int) string {
	if points <= 1 {
		points = 200
	}
	var b strings.Builder
	b.WriteString("scenario,x,golden,lvf2,norm2,lesn,lvf\n")
	for _, r := range rows {
		if r.Golden == nil {
			continue // restored from a checkpoint: no fitted curves to plot
		}
		lo := r.Golden.QuantileValue(0.001)
		hi := r.Golden.QuantileValue(0.999)
		span := hi - lo
		lo -= 0.1 * span
		hi += 0.1 * span
		step := (hi - lo) / float64(points-1)
		for i := 0; i < points; i++ {
			x := lo + float64(i)*step
			fmt.Fprintf(&b, "%s,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
				strings.ReplaceAll(r.Scenario.Name, " ", "_"), x,
				r.Golden.PDF(x),
				pdfOrZero(r.Evals[fit.ModelLVF2], x),
				pdfOrZero(r.Evals[fit.ModelNorm2], x),
				pdfOrZero(r.Evals[fit.ModelLESN], x),
				pdfOrZero(r.Evals[fit.ModelLVF], x))
		}
	}
	return b.String()
}

func pdfOrZero(e ModelEval, x float64) float64 {
	if e.Err != nil || e.Dist == nil {
		return 0
	}
	return e.Dist.PDF(x)
}

// ---------------------------------------------------------------- Table 2

// Table2Config adds library-sweep scale knobs.
type Table2Config struct {
	Config
	// ArcsPerType caps the arcs characterised per cell type (0 = all,
	// paper scale). The reduced default is 2.
	ArcsPerType int
	// GridStride subsamples the 8×8 grid (1 = all 64 points; reduced
	// default 4 → 2×2).
	GridStride int
}

// WithDefaults fills zero fields.
func (c Table2Config) WithDefaults() Table2Config {
	c.Config = c.Config.WithDefaults()
	if c.ArcsPerType == 0 {
		c.ArcsPerType = 2
	}
	if c.GridStride <= 0 {
		c.GridStride = 4
	}
	return c
}

// CellTypeResult is one row of Table 2: per-type average error reductions.
type CellTypeResult struct {
	Cell     string
	ArcCount int // Table 2's "test arcs" column (library definition)
	ArcsRun  int // arcs actually characterised in this run
	// Reductions indexed by [kind][model]: kind 0 = delay binning,
	// 1 = transition binning, 2 = delay 3σ-yield, 3 = transition 3σ-yield.
	DelayBin   map[fit.Model]float64
	TransBin   map[fit.Model]float64
	DelayYield map[fit.Model]float64
	TransYield map[fit.Model]float64
}

// Table2 sweeps the standard-cell library and aggregates the four
// error-reduction metrics per cell type.
func Table2(cfg Table2Config) ([]CellTypeResult, error) {
	return Table2Ctx(context.Background(), cfg)
}

// Table2Ctx is Table2 with cooperative cancellation. The producer streams
// characterised distributions into a panic-hardened fitting pool (the
// paper-scale sweep is far too large to precompute), so memory stays
// bounded while cancellation stops both the producer and the workers
// promptly.
//
// Each (arc, slew, load, kind) point is one work unit. Unit values land
// in per-unit slots and are aggregated in deterministic production order
// after the pool drains, so the reported averages are independent of
// worker scheduling — and a journaled resume, which restores some units
// and recomputes others, sums in exactly the same order as an
// uninterrupted run. Quarantined (poison) units are excluded from the
// averages rather than aborting the sweep.
func Table2Ctx(ctx context.Context, cfg Table2Config) ([]CellTypeResult, error) {
	cfg = cfg.WithDefaults()
	lib := cells.Library()
	out := make([]CellTypeResult, len(lib))

	// slot is one unit's place in production order; vals stays nil for
	// quarantined units, which the aggregation below skips.
	type slot struct {
		typeIdx  int
		binIdx   int
		yieldIdx int
		vals     map[fit.Model][2]float64 // [bin, yield] reductions
	}
	var slots []*slot

	p := pool.New(ctx, pool.Options{Workers: cfg.Workers})
	charCfg := cells.CharConfig{
		Samples:    cfg.Samples,
		Seed:       cfg.Seed,
		GridStride: cfg.GridStride,
	}.WithDefaults()
	unitKey := func(arc cells.Arc, si, li int, kind cells.Kind) checkpoint.Key {
		return checkpoint.Key{Cell: arc.Cell, Pin: "table2", Arc: arc.Label, Slew: si, Load: li, Kind: kind.String()}
	}
	var restored atomic.Int64
	fitJob := func(s *slot, k checkpoint.Key, d cells.Distribution, haveDist bool) func(context.Context) error {
		return func(tctx context.Context) error {
			unit, uerr := cfg.Checkpoint.Do(tctx, k, func(context.Context) ([]byte, error) {
				if !haveDist {
					return nil, fmt.Errorf("experiments: no samples for unit %s", k)
				}
				evals, _ := EvaluateAll(d.Samples, cfg.FitOpts)
				base := evals[fit.ModelLVF].Metrics
				vals := make(map[fit.Model][2]float64, len(evals))
				for m, e := range evals {
					if e.Err != nil {
						continue
					}
					vals[m] = [2]float64{
						cfg.reduction(e.Metrics.BinErr, base.BinErr),
						cfg.reduction(e.Metrics.YieldErr, base.YieldErr),
					}
				}
				arcsTotal.Inc()
				return encodeReductions2(vals), nil
			}, noReductions)
			if uerr != nil {
				return uerr
			}
			if unit.Restored {
				restored.Add(1)
			}
			if unit.Quarantined {
				return nil // poison unit: excluded from the averages
			}
			vals, derr := decodeReductions2(unit.Payload)
			if derr != nil {
				return fmt.Errorf("experiments: unit %s payload: %w", k, derr)
			}
			s.vals = vals
			return nil
		}
	}

produce:
	for ti, ct := range lib {
		arcs := ct.Arcs()
		if cfg.ArcsPerType > 0 && len(arcs) > cfg.ArcsPerType {
			arcs = arcs[:cfg.ArcsPerType]
		}
		out[ti] = CellTypeResult{Cell: ct.Name, ArcCount: ct.ArcCount, ArcsRun: len(arcs)}
		for _, arc := range arcs {
			arc := arc
			// Skip a point's Monte-Carlo pass only when BOTH of its units
			// are already journaled terminal.
			acfg := charCfg
			acfg.Skip = func(_ cells.Arc, si, li int) bool {
				return cfg.Checkpoint.Terminal(unitKey(arc, si, li, cells.Delay)) &&
					cfg.Checkpoint.Terminal(unitKey(arc, si, li, cells.Transition))
			}
			dists, cerr := cells.CharacterizeArcCtx(ctx, acfg, arc)
			if cerr != nil {
				break produce // cancelled: stop producing, drain below
			}
			byPoint := make(map[[3]int]cells.Distribution, len(dists))
			for _, d := range dists {
				byPoint[[3]int{d.SlewIdx, d.LoadIdx, int(d.Kind)}] = d
			}
			for _, gp := range charCfg.SweepPoints() {
				for _, kind := range [...]cells.Kind{cells.Delay, cells.Transition} {
					k := unitKey(arc, gp.SlewIdx, gp.LoadIdx, kind)
					s := &slot{typeIdx: ti}
					if kind == cells.Delay {
						s.binIdx, s.yieldIdx = 0, 2
					} else {
						s.binIdx, s.yieldIdx = 1, 3
					}
					slots = append(slots, s)
					d, have := byPoint[[3]int{gp.SlewIdx, gp.LoadIdx, int(kind)}]
					if p.Submit(k.String(), fitJob(s, k, d, have)) != nil {
						break produce // pool refused: context cancelled
					}
				}
			}
		}
	}
	if err := p.Wait(); err != nil {
		return nil, err
	}
	cfg.Checkpoint.SetResumeSkipRatio(int(restored.Load()), len(slots))

	// Aggregate in production order: deterministic float summation.
	type acc struct {
		sums   map[fit.Model]*[4]float64
		counts [4]int
	}
	accs := make([]acc, len(lib))
	for i := range accs {
		accs[i].sums = make(map[fit.Model]*[4]float64)
		for _, m := range fit.AllModels {
			accs[i].sums[m] = &[4]float64{}
		}
	}
	for _, s := range slots {
		if s.vals == nil {
			continue
		}
		a := &accs[s.typeIdx]
		for _, m := range fit.AllModels {
			if v, ok := s.vals[m]; ok {
				a.sums[m][s.binIdx] += v[0]
				a.sums[m][s.yieldIdx] += v[1]
			}
		}
		a.counts[s.binIdx]++
		a.counts[s.yieldIdx]++
	}
	for ti := range out {
		a := &accs[ti]
		mk := func(idx int) map[fit.Model]float64 {
			r := make(map[fit.Model]float64, len(fit.AllModels))
			for _, m := range fit.AllModels {
				if a.counts[idx] > 0 {
					r[m] = a.sums[m][idx] / float64(a.counts[idx])
				}
			}
			return r
		}
		out[ti].DelayBin = mk(0)
		out[ti].TransBin = mk(1)
		out[ti].DelayYield = mk(2)
		out[ti].TransYield = mk(3)
	}
	return out, nil
}

// Table2Averages computes the "Average" row.
func Table2Averages(rows []CellTypeResult) (delayBin, transBin, delayYield, transYield map[fit.Model]float64) {
	mk := func(sel func(CellTypeResult) map[fit.Model]float64) map[fit.Model]float64 {
		sum := make(map[fit.Model]float64)
		for _, r := range rows {
			for m, v := range sel(r) {
				sum[m] += v
			}
		}
		for m := range sum {
			sum[m] /= float64(len(rows))
		}
		return sum
	}
	return mk(func(r CellTypeResult) map[fit.Model]float64 { return r.DelayBin }),
		mk(func(r CellTypeResult) map[fit.Model]float64 { return r.TransBin }),
		mk(func(r CellTypeResult) map[fit.Model]float64 { return r.DelayYield }),
		mk(func(r CellTypeResult) map[fit.Model]float64 { return r.TransYield })
}

// RenderTable2 formats the library assessment like the paper's Table 2.
func RenderTable2(rows []CellTypeResult) string {
	var b strings.Builder
	order := []fit.Model{fit.ModelLVF2, fit.ModelNorm2, fit.ModelLESN, fit.ModelLVF}
	fmt.Fprintf(&b, "Table 2: Standard Cell Library Assessment among Models (error reduction, x)\n")
	fmt.Fprintf(&b, "%-7s %5s |%28s |%28s |%28s |%28s\n", "Cell", "Arcs",
		"Delay Binning", "Transition Binning", "Delay 3s-Yield", "Transition 3s-Yield")
	fmt.Fprintf(&b, "%-7s %5s |", "", "")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "%7s%7s%7s%7s |", "LVF2", "Norm2", "LESN", "LVF")
	}
	b.WriteString("\n")
	writeGroup := func(m map[fit.Model]float64) {
		for _, mod := range order {
			fmt.Fprintf(&b, "%7.2f", m[mod])
		}
		b.WriteString(" |")
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %5d |", r.Cell, r.ArcCount)
		writeGroup(r.DelayBin)
		writeGroup(r.TransBin)
		writeGroup(r.DelayYield)
		writeGroup(r.TransYield)
		b.WriteString("\n")
	}
	db, tb, dy, ty := Table2Averages(rows)
	fmt.Fprintf(&b, "%-7s %5s |", "Average", "")
	writeGroup(db)
	writeGroup(tb)
	writeGroup(dy)
	writeGroup(ty)
	b.WriteString("\n")
	return b.String()
}

// SortRowsLikePaper orders rows in the paper's Table 2 cell order.
func SortRowsLikePaper(rows []CellTypeResult) {
	order := map[string]int{}
	for i, ct := range cells.Library() {
		order[ct.Name] = i
	}
	sort.Slice(rows, func(a, b int) bool { return order[rows[a].Cell] < order[rows[b].Cell] })
}
