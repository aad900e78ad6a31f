package lvf2

// The benchmark harness regenerates every table and figure of the paper's
// evaluation at reduced scale and reports the headline numbers as custom
// benchmark metrics (x-reduction values), so `go test -bench .` doubles as
// the reproduction run. Paper-scale runs (50k samples, full grids) are
// reached through cmd/exptables flags.

import (
	"math"
	"strings"
	"testing"
	"time"

	"lvf2/internal/binning"
	"lvf2/internal/cells"
	"lvf2/internal/circuits"
	"lvf2/internal/experiments"
	"lvf2/internal/fit"
	"lvf2/internal/liberty"
	"lvf2/internal/mc"
	"lvf2/internal/spice"
	"lvf2/internal/ssta"
	"lvf2/internal/stats"
)

// ------------------------------------------------------- paper artefacts

// BenchmarkTable1 regenerates the five-scenario assessment (Table 1) and
// reports LVF²'s average binning error reduction.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Config{Samples: 4000, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		var avg float64
		for _, r := range rows {
			avg += r.BinReduction[fit.ModelLVF2]
		}
		b.ReportMetric(avg/float64(len(rows)), "LVF2-x-reduction")
	}
}

// BenchmarkTable2 regenerates the standard-cell library sweep (Table 2,
// reduced: 1 arc per type, 2×2 grid) and reports the four average
// LVF² reductions.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(experiments.Table2Config{
			Config:      experiments.Config{Samples: 2000, Seed: 42},
			ArcsPerType: 1,
			GridStride:  4,
		})
		if err != nil {
			b.Fatal(err)
		}
		db, tb, dy, ty := experiments.Table2Averages(rows)
		b.ReportMetric(db[fit.ModelLVF2], "delay-bin-x")
		b.ReportMetric(tb[fit.ModelLVF2], "trans-bin-x")
		b.ReportMetric(dy[fit.ModelLVF2], "delay-yield-x")
		b.ReportMetric(ty[fit.ModelLVF2], "trans-yield-x")
	}
}

// BenchmarkFig3 regenerates the fitted-PDF curves behind Fig. 3 (and the
// Fig. 1 concept panel) and reports the CSV size as a sanity metric.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(experiments.Config{Samples: 4000, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		csv := experiments.Fig3CSV(rows, 100)
		b.ReportMetric(float64(strings.Count(csv, "\n")), "csv-rows")
	}
}

// BenchmarkFig4 regenerates the NAND2 slew–load accuracy-pattern heat map
// and reports the diagonal-pattern score (positive = the paper's diagonal
// regularity is present).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(experiments.Fig4Config{
			Config: experiments.Config{Samples: 1500, Seed: 42},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.DiagonalScore(res.DelayRed), "diag-score-delay")
		b.ReportMetric(experiments.DiagonalScore(res.TransRed), "diag-score-trans")
	}
}

// BenchmarkFig5Adder regenerates the 16-bit carry-adder path study and
// reports LVF²'s reduction at 8 FO4 and at the last cell (the paper quotes
// 2× and 1.15×).
func BenchmarkFig5Adder(b *testing.B) {
	corner := spice.TTCorner()
	path := circuits.CarryAdder16(corner)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.Config{Samples: 3000, Seed: 42}, path, corner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionAtFO4(fit.ModelLVF2, 8), "x-at-8FO4")
		b.ReportMetric(res.Points[len(res.Points)-1].Reduction[fit.ModelLVF2], "x-at-end")
	}
}

// BenchmarkFig5HTree regenerates the 6-stage H-tree path study (the paper
// quotes 8× at 8 FO4 and 2.68× at the end).
func BenchmarkFig5HTree(b *testing.B) {
	corner := spice.TTCorner()
	path := circuits.HTree6(corner)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(experiments.Config{Samples: 3000, Seed: 42}, path, corner)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ReductionAtFO4(fit.ModelLVF2, 8), "x-at-8FO4")
		b.ReportMetric(res.Points[len(res.Points)-1].Reduction[fit.ModelLVF2], "x-at-end")
	}
}

// ------------------------------------------------------------- ablations

// BenchmarkAblationMStep compares the moment-based EM M-step against the
// Nelder–Mead MLE polish (DESIGN.md §5): same data, with and without
// polish, reporting the log-likelihood gap.
func BenchmarkAblationMStep(b *testing.B) {
	rng := mc.NewRNG(7)
	scs, err := spice.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	xs := scs[0].GoldenSamples(rng, 4000)
	for i := 0; i < b.N; i++ {
		plain, err := fit.FitLVF2(xs, fit.Options{})
		if err != nil {
			b.Fatal(err)
		}
		polished, err := fit.FitLVF2(xs, fit.Options{Polish: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(polished.LogLik-plain.LogLik, "loglik-gain")
	}
}

// BenchmarkAblationReduction compares SSTA propagation with the paper's
// 2-component representation against a 4-component variant (no final
// merge), reporting the binning-error ratio (≈1 means the 4→2 merge costs
// almost nothing).
func BenchmarkAblationReduction(b *testing.B) {
	corner := spice.TTCorner()
	path := circuits.FO4Chain(6, 0)
	stages := path.MCStages(corner, 3000, 21)
	for i := 0; i < b.N; i++ {
		run := func(maxComps int) float64 {
			r, err := fit.FitLVF2(stages[0].Samples, fit.Options{})
			if err != nil {
				b.Fatal(err)
			}
			var acc ssta.Var = ssta.SNMixVar{
				Weights:  []float64{1 - r.Lambda, r.Lambda},
				Comps:    []stats.SkewNormal{r.C1, r.C2},
				MaxComps: maxComps,
			}
			cum := append([]float64(nil), stages[0].Samples...)
			for s := 1; s < len(stages); s++ {
				r, err := fit.FitLVF2(stages[s].Samples, fit.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sv := ssta.SNMixVar{
					Weights:  []float64{1 - r.Lambda, r.Lambda},
					Comps:    []stats.SkewNormal{r.C1, r.C2},
					MaxComps: maxComps,
				}
				acc, err = acc.Sum(sv)
				if err != nil {
					b.Fatal(err)
				}
				for k := range cum {
					cum[k] += stages[s].Samples[k]
				}
			}
			return binning.Evaluate(acc.Dist(), stats.NewEmpirical(cum)).BinErr
		}
		err2 := run(2)
		err4 := run(4)
		b.ReportMetric(err2/err4, "binerr-2comp-over-4comp")
	}
}

// BenchmarkAblationLHS measures the variance-reduction of Latin Hypercube
// sampling over IID sampling for a bin-probability estimator at equal
// budget (DESIGN.md §5).
func BenchmarkAblationLHS(b *testing.B) {
	e := cells.Library()[0].Arcs()[0].Elec
	corner := spice.TTCorner()
	for i := 0; i < b.N; i++ {
		const trials, n = 24, 512
		variance := func(lhs bool) float64 {
			var ests []float64
			for tr := 0; tr < trials; tr++ {
				rng := mc.NewRNG(uint64(1000 + tr))
				var pts [][]float64
				if lhs {
					pts = mc.GaussianLHS(rng, n, spice.NumParams)
				} else {
					pts = mc.GaussianIID(rng, n, spice.NumParams)
				}
				var mean float64
				for _, row := range pts {
					d, _ := e.Eval(corner, spice.ParamsFromVector(row), 0.02102, 0.04965)
					mean += d
				}
				ests = append(ests, mean/float64(n))
			}
			return stats.Moments(ests).Variance
		}
		vLHS := variance(true)
		vIID := variance(false)
		b.ReportMetric(vIID/vLHS, "iid-over-lhs-variance")
	}
}

// BenchmarkAblationAdaptive evaluates the paper's anticipated use of the
// accuracy pattern (§3.4, §4.3): decide per grid point whether the cheap
// LVF fit suffices (unimodal points) or the LVF² EM fit is needed
// (multi-Gaussian points), using the pilot bimodality score. Metrics:
// the binning-error ratio of the selective flow vs all-LVF² (≈1 means no
// accuracy loss) and its fitting-time speedup (>1 means time saved).
func BenchmarkAblationAdaptive(b *testing.B) {
	ct, _ := cells.CellByName("NAND2")
	arc := ct.Arcs()[0]
	arc.Elec.DiagOffset = 0
	arc.Elec.ModeGap = 0.25
	cfg := cells.CharConfig{Samples: 2500, Seed: 404, GridStride: 2}
	dists := cells.CharacterizeArc(cfg, arc)

	for i := 0; i < b.N; i++ {
		var errAll, errSel float64
		var nPts int
		t0 := time.Now()
		for _, d := range dists {
			if d.Kind != cells.Delay {
				continue
			}
			r, err := fit.FitLVF2(d.Samples, fit.Options{})
			if err != nil {
				b.Fatal(err)
			}
			errAll += binning.Evaluate(r.Dist(), stats.NewEmpirical(d.Samples)).BinErr
			nPts++
		}
		tAll := time.Since(t0)

		t0 = time.Now()
		for _, d := range dists {
			if d.Kind != cells.Delay {
				continue
			}
			var dist stats.Dist
			m := stats.Moments(d.Samples)
			// LVF matches three moments exactly, so its residual error is
			// predicted by the fourth: compare the sample kurtosis with
			// the kurtosis the moment-matched SN implies. A mismatch
			// beyond sampling noise (SE ≈ √(24/n)) or a clamped skewness
			// routes the point to the LVF² fit.
			snImplied := stats.SNFromMoments(m.Mean, m.Std(), m.Skewness)
			kurtGap := math.Abs(m.Kurtosis - (snImplied.ExcessKurtosis() + 3))
			if kurtGap > 3*math.Sqrt(24/float64(m.N)) || math.Abs(m.Skewness) > stats.MaxSNSkewness {
				r, err := fit.FitLVF2(d.Samples, fit.Options{})
				if err != nil {
					b.Fatal(err)
				}
				dist = r.Dist()
			} else {
				r, err := fit.FitLVF(d.Samples)
				if err != nil {
					b.Fatal(err)
				}
				dist = r.Dist
			}
			errSel += binning.Evaluate(dist, stats.NewEmpirical(d.Samples)).BinErr
		}
		tSel := time.Since(t0)

		b.ReportMetric(errSel/errAll, "selective-over-all-binerr")
		b.ReportMetric(float64(tAll)/float64(tSel), "fit-time-speedup")
		_ = nPts
	}
}

// --------------------------------------------------------- micro benches

func benchSamples(n int) []float64 {
	rng := mc.NewRNG(3)
	scs, err := spice.Scenarios()
	if err != nil {
		panic(err) // bench fixture: definitions are compile-time constants
	}
	return scs[2].GoldenSamples(rng, n)
}

// BenchmarkFitLVF2 measures one EM fit of the paper's model.
func BenchmarkFitLVF2(b *testing.B) {
	xs := benchSamples(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.FitLVF2(xs, fit.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitNorm2 measures the Gaussian-mixture comparator fit.
func BenchmarkFitNorm2(b *testing.B) {
	xs := benchSamples(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.FitNorm2(xs, fit.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLESN measures the LESN kurtosis-matching fit.
func BenchmarkFitLESN(b *testing.B) {
	xs := benchSamples(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.FitLESN(xs, fit.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLVF measures the baseline moment-match fit.
func BenchmarkFitLVF(b *testing.B) {
	xs := benchSamples(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.FitLVF(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSNCDF measures the Owen's-T-based skew-normal CDF.
func BenchmarkSNCDF(b *testing.B) {
	sn := stats.SNFromMoments(0.1, 0.01, 0.5)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += sn.CDF(0.095 + float64(i%16)*0.001)
	}
	_ = acc
}

var benchSink float64

// BenchmarkOwenT measures the Owen's T kernel over bulk points on both
// sides of the |a| = 1 reduction.
func BenchmarkOwenT(b *testing.B) {
	as := [2]float64{0.6, 3}
	for i := 0; i < b.N; i++ {
		benchSink += stats.OwenT(float64(i%16)*0.25, as[i%2])
	}
}

// benchLVF2 is an LVF² model whose second mode sits 4.5σ above the first.
func benchLVF2() Model {
	return Model{
		Lambda: 0.2,
		Theta1: Theta{Mean: 0.102, Sigma: 0.004, Skew: 0.3},
		Theta2: Theta{Mean: 0.12, Sigma: 0.005, Skew: 0.1},
	}
}

// BenchmarkQuantileGrid measures the refit sample grid: 2048 midpoint
// quantiles of an LVF² mixture, one stats.Quantile call each.
func BenchmarkQuantileGrid(b *testing.B) {
	d := benchLVF2().Dist()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2048; j++ {
			benchSink += stats.Quantile(d, (float64(j)+0.5)/2048)
		}
	}
}

// BenchmarkMaxMoments measures the SSTA max of one LVF² component pair.
func BenchmarkMaxMoments(b *testing.B) {
	m := benchLVF2()
	var x, y stats.Dist = m.Theta1.SN(), m.Theta2.SN()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += ssta.MaxMoments(x, y).Mean
	}
}

// BenchmarkCharacterizeArc measures one MC characterisation point
// (2000 samples) of the electrical model.
func BenchmarkCharacterizeArc(b *testing.B) {
	e := cells.Library()[2].Arcs()[0].Elec
	corner := spice.TTCorner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := mc.NewRNG(uint64(i + 1))
		e.Characterize(corner, rng, 2000, 0.02102, 0.04965)
	}
}

// BenchmarkSSTASum measures one LVF² mixture Sum (pairwise convolution +
// 4→2 reduction).
func BenchmarkSSTASum(b *testing.B) {
	v := ssta.SNMixVar{
		Weights: []float64{0.7, 0.3},
		Comps: []stats.SkewNormal{
			stats.SNFromMoments(0.10, 0.005, 0.4),
			stats.SNFromMoments(0.13, 0.004, 0.3),
		},
		MaxComps: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Sum(v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLibertyParse measures parsing a generated LVF² library.
func BenchmarkLibertyParse(b *testing.B) {
	lib := liberty.NewLibrary(liberty.LibraryHeaderOptions{Name: "bench"}, "tpl",
		cells.DefaultGrid().Slews, cells.DefaultGrid().Loads)
	pin := liberty.AddCell(lib, "NAND2", []string{"A", "B"}, 0.0011, "ZN", "!(A & B)")
	timing := liberty.AddTiming(pin, "A", "negative_unate")
	grid := cells.DefaultGrid()
	nom := make([][]float64, 8)
	fits := make([][]Model, 8)
	for i := range nom {
		nom[i] = make([]float64, 8)
		fits[i] = make([]Model, 8)
		for j := range nom[i] {
			nom[i][j] = 0.1 + 0.01*float64(i+j)
			fits[i][j] = Model{
				Lambda: 0.2,
				Theta1: Theta{Mean: nom[i][j] + 0.002, Sigma: 0.004, Skew: 0.3},
				Theta2: Theta{Mean: nom[i][j] + 0.02, Sigma: 0.005, Skew: 0.1},
			}
		}
	}
	tm := liberty.TimingModelFromFits("cell_rise", grid.Slews, grid.Loads, nom, fits)
	tm.AppendTo(timing, "tpl", true)
	text := lib.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := liberty.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}
