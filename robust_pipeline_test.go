package lvf2

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"lvf2/internal/faultinject"
	"lvf2/internal/liberty"
	"lvf2/internal/mc"
)

// End-to-end fault tolerance: every rung of the degradation ladder fires
// on genuinely faulty inputs, and the pipeline still emits a valid,
// lint-clean Liberty file whose fallback provenance survives a round trip.

// expClusters draws two exponential clusters — per-cluster skewness ≈ 2,
// far beyond what a skew-normal can represent, so the LVF²/LVF rungs rail
// their skew clamps and validation degrades the fit to Norm².
func expClusters(n int, seed uint64) []float64 {
	rng := mc.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		c := 1.0
		if i%2 == 1 {
			c = 2.0
		}
		xs[i] = c + 0.05*(-math.Log(rng.Float64()+1e-300))
	}
	return xs
}

func TestPipelineEveryRungToLintCleanLibrary(t *testing.T) {
	cases := []struct {
		name       string
		xs         []float64
		want       ModelKind
		degenerate bool
	}{
		{"nan_contaminated_bimodal", faultinject.ContaminateNaN(bimodalSamples(4000, 21), 0.01, 5), KindLVF2, false},
		{"railed_skew_clusters", expClusters(4000, 11), KindNorm2, false},
		{"tiny_sample", []float64{1.0, 1.1, 1.3, 1.02, 1.2}, KindLVF, false},
		{"two_samples", []float64{1.0, 1.2}, KindGaussian, false},
		{"identical_samples", faultinject.Identical(10, 3), KindGaussian, true},
	}

	idx1 := make([]float64, len(cases))
	idx2 := []float64{0.002}
	models := make([][]Model, len(cases))
	nominal := make([][]float64, len(cases))
	var notes []string
	usedRungs := map[ModelKind]bool{}
	sawDegenerate := false

	for i, tc := range cases {
		m, rep, err := FitRobust(tc.xs, RobustOptions{})
		if err != nil {
			t.Fatalf("%s: FitRobust: %v", tc.name, err)
		}
		if rep.Used != tc.want {
			t.Errorf("%s: rung %v, want %v (report: %s)", tc.name, rep.Used, tc.want, rep)
		}
		if rep.Degenerate != tc.degenerate {
			t.Errorf("%s: Degenerate = %v, want %v", tc.name, rep.Degenerate, tc.degenerate)
		}
		if i == 0 && rep.Dropped == 0 {
			t.Errorf("%s: contaminated set must report dropped samples", tc.name)
		}
		usedRungs[rep.Used] = true
		sawDegenerate = sawDegenerate || rep.Degenerate
		idx1[i] = 0.01 * float64(i+1)
		models[i] = []Model{m}
		nominal[i] = []float64{m.Mean()}
		if rep.Fallback || rep.Degenerate || rep.Dropped > 0 {
			notes = append(notes, fmt.Sprintf("(%d,0): %s", i, rep))
		}
	}
	for _, k := range []ModelKind{KindLVF2, KindNorm2, KindLVF, KindGaussian} {
		if !usedRungs[k] {
			t.Fatalf("rung %v never fired", k)
		}
	}
	if !sawDegenerate {
		t.Fatal("degenerate salvage never fired")
	}

	// Emit all five rungs' models into one Liberty table and lint it.
	tt := TimingTablesFromModels("cell_rise", idx1, idx2, nominal, models)
	tt.FallbackNote = strings.Join(notes, "; ")
	lib := liberty.NewLibrary(liberty.LibraryHeaderOptions{
		Name: "robust_pipeline", Voltage: 0.8, TempC: 25,
	}, "tpl_5x1", idx1, idx2)
	out := liberty.AddCell(lib, "INV", []string{"A"}, 0.0009, "ZN", "!A")
	timing := liberty.AddTiming(out, "A", "positive_unate")
	tt.AppendTo(timing, "tpl_5x1", true)

	var buf bytes.Buffer
	if err := liberty.WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseLiberty(buf.String())
	if err != nil {
		t.Fatalf("emitted library must parse: %v", err)
	}
	if issues := LintLibrary(parsed); LintHasErrors(issues) {
		t.Fatalf("emitted library must lint clean: %v", issues)
	}

	// Fallback provenance and every model survive the round trip.
	cellG, _ := parsed.Group("cell")
	var timingG *LibertyGroup
	for _, p := range cellG.GroupsNamed("pin") {
		if tg, ok := p.Group("timing"); ok {
			timingG = tg
		}
	}
	if timingG == nil {
		t.Fatal("no timing group in parsed library")
	}
	tt2, err := ExtractTimingTables(timingG, "cell_rise")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tt2.FallbackNote, "Norm2") || !strings.Contains(tt2.FallbackNote, "degenerate salvage") {
		t.Errorf("fallback note lost in round trip: %q", tt2.FallbackNote)
	}
	for i := range cases {
		m, err := tt2.ModelAt(i, 0)
		if err != nil {
			t.Fatalf("ModelAt(%d,0): %v", i, err)
		}
		if mean := m.Dist().Mean(); math.IsNaN(mean) || math.IsInf(mean, 0) {
			t.Errorf("point %d: non-finite mean after round trip", i)
		}
	}
}

func TestPipelineFaultyCharacterisationToLintCleanLibrary(t *testing.T) {
	inv, ok := CellByName("INV")
	if !ok {
		t.Fatal("INV missing")
	}
	cfg := CharConfig{Samples: 300, GridStride: 7, Seed: 3, Eval: faultinject.CorruptingEval(0.05, 9)}
	dists, err := CharacterizeArcCtx(context.Background(), cfg, inv.Arcs()[0])
	if err != nil {
		t.Fatal(err)
	}

	// Robust-fit the arc's NaN-flooded distributions and emit.
	grid := DefaultGrid()
	idx1 := []float64{grid.Slews[0], grid.Slews[7]}
	idx2 := []float64{grid.Loads[0], grid.Loads[7]}
	mk := func() ([][]float64, [][]Model) {
		return [][]float64{make([]float64, 2), make([]float64, 2)},
			[][]Model{make([]Model, 2), make([]Model, 2)}
	}
	nomD, modD := mk()
	nomT, modT := mk()
	var notes []string
	dropped := 0
	for _, d := range dists {
		i, j := d.SlewIdx/7, d.LoadIdx/7
		m, rep, err := FitRobust(d.Samples, RobustOptions{})
		if err != nil {
			t.Fatalf("%s (%d,%d): %v", d.Arc.Label, i, j, err)
		}
		dropped += rep.Dropped
		if rep.Fallback || rep.Degenerate || rep.Dropped > 0 {
			notes = append(notes, fmt.Sprintf("(%d,%d): %s", i, j, rep))
		}
		if d.Kind == DelayKind {
			nomD[i][j], modD[i][j] = d.NomDelay, m
		} else {
			nomT[i][j], modT[i][j] = d.NomDelay, m
		}
	}
	if dropped == 0 {
		t.Error("corrupting evaluator must force dropped samples")
	}

	lib := liberty.NewLibrary(liberty.LibraryHeaderOptions{
		Name: "faulty_char", Voltage: 0.8, TempC: 25,
	}, "tpl_2x2", idx1, idx2)
	out := liberty.AddCell(lib, "INV", []string{"A"}, inv.Base.CapIn, "ZN", "!A")
	timing := liberty.AddTiming(out, "A", "positive_unate")
	ttD := TimingTablesFromModels("cell_rise", idx1, idx2, nomD, modD)
	ttD.FallbackNote = strings.Join(notes, "; ")
	ttD.AppendTo(timing, "tpl_2x2", true)
	TimingTablesFromModels("rise_transition", idx1, idx2, nomT, modT).
		AppendTo(timing, "tpl_2x2", true)

	var buf bytes.Buffer
	if err := liberty.WriteLibrary(&buf, lib); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseLiberty(buf.String())
	if err != nil {
		t.Fatalf("emitted library must parse: %v", err)
	}
	if issues := LintLibrary(parsed); LintHasErrors(issues) {
		t.Fatalf("emitted library must lint clean: %v", issues)
	}
}
