package lvf2

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"lvf2/internal/stats"
)

// The facade tests exercise the public API end to end: characterise →
// fit → bin → emit Liberty → parse back → SSTA.

func bimodalSamples(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	truth, _ := stats.NewMixture(
		[]float64{0.7, 0.3},
		[]stats.Dist{
			stats.SNFromMoments(0.10, 0.005, 0.4),
			stats.SNFromMoments(0.13, 0.004, 0.3),
		})
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	return xs
}

func TestFacadeFitAndBin(t *testing.T) {
	xs := bimodalSamples(15000, 1)
	m, err := Fit(xs, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.IsLVF() {
		t.Fatal("bimodal data should need two components")
	}
	base, err := FitLVF(xs)
	if err != nil {
		t.Fatal(err)
	}
	mMet := EvaluateAgainst(m.Dist(), xs)
	bMet := EvaluateAgainst(base.Dist(), xs)
	red := ErrorReduction(bMet.BinErr, mMet.BinErr)
	if red <= 1 {
		t.Errorf("LVF2 binning error reduction %v should exceed 1", red)
	}
	// Bin probabilities form a distribution.
	sm := stats.Moments(xs)
	probs := BinProbabilities(m.Dist(), SigmaBoundaries(sm.Mean, sm.Std()))
	var tot float64
	for _, p := range probs {
		tot += p
	}
	if math.Abs(tot-1) > 1e-9 {
		t.Errorf("bin probs sum %v", tot)
	}
	// Yield and revenue plumbing.
	y := Yield3Sigma(m.Dist(), sm.Mean, sm.Std())
	if y < 0.95 || y > 1 {
		t.Errorf("3σ-yield %v", y)
	}
	rev := ExpectedRevenue(probs, []float64{0, 1, 2, 3, 4, 5, 6, 0})
	if rev <= 0 {
		t.Errorf("revenue %v", rev)
	}
}

func TestFacadeFitKinds(t *testing.T) {
	xs := bimodalSamples(6000, 2)
	for _, k := range AllModelKinds() {
		d, err := FitKind(k, xs, FitOptions{})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if d.Mean() <= 0 {
			t.Errorf("%v: mean %v", k, d.Mean())
		}
	}
}

func TestFacadeLibertyRoundTrip(t *testing.T) {
	xs := bimodalSamples(8000, 3)
	m, err := Fit(xs, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i1 := []float64{0.01}
	i2 := []float64{0.002}
	tt := TimingTablesFromModels("cell_rise", i1, i2,
		[][]float64{{0.10}}, [][]Model{{m}})
	lib := &LibertyGroup{Name: "library", Args: []string{"t"}}
	cell := lib.AddGroup("cell", "X")
	pin := cell.AddGroup("pin", "ZN")
	timing := pin.AddGroup("timing")
	tt.AppendTo(timing, "tpl", true)

	parsed, err := ParseLiberty(lib.String())
	if err != nil {
		t.Fatal(err)
	}
	cellG, _ := parsed.Group("cell")
	pinG, _ := cellG.Group("pin")
	timingG, _ := pinG.Group("timing")
	tt2, err := ExtractTimingTables(timingG, "cell_rise")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tt2.ModelAt(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2.Lambda-m.Lambda) > 1e-6 {
		t.Errorf("λ round trip %v vs %v", m2.Lambda, m.Lambda)
	}
}

func TestFacadeCharacterizeAndSSTA(t *testing.T) {
	corner := TTCorner()
	nand, ok := CellByName("NAND2")
	if !ok {
		t.Fatal("NAND2 missing")
	}
	arcs := nand.Arcs()
	dists := CharacterizeArc(CharConfig{Samples: 800, GridStride: 8}, arcs[0])
	if len(dists) == 0 {
		t.Fatal("no distributions")
	}

	path := FO4Chain(4, 0)
	stages := path.MCStages(corner, 1500, 5)
	res, err := PropagateChain(stages, AllModelKinds(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := res[len(res)-1]
	v := last.Vars[KindLVF2]
	if v == nil {
		t.Fatal("LVF2 var missing")
	}
	gm := last.Golden.Mean()
	if math.Abs(v.Dist().Mean()-gm)/gm > 0.02 {
		t.Errorf("propagated mean %v vs golden %v", v.Dist().Mean(), gm)
	}
}

func TestFacadeBerryEsseen(t *testing.T) {
	xs := bimodalSamples(4000, 6)
	rho := StageNonGaussianity(xs)
	if rho <= 0 {
		t.Fatalf("rho %v", rho)
	}
	b8 := BerryEsseenBound(rho, 8)
	b32 := BerryEsseenBound(rho, 32)
	if !(b32 < b8) {
		t.Error("bound must shrink with depth")
	}
}

func TestFacadeLibraryShape(t *testing.T) {
	libTypes := StandardCells()
	if len(libTypes) != 25 {
		t.Fatalf("library size %d", len(libTypes))
	}
	if fo4, err := FO4Delay(TTCorner()); err != nil || fo4 <= 0 {
		t.Errorf("FO4 delay %v (err %v), must be positive", fo4, err)
	}
	g := DefaultGrid()
	if len(g.Slews) != 8 || len(g.Loads) != 8 {
		t.Error("grid shape")
	}
}

func TestFromLVFFacade(t *testing.T) {
	m := FromLVF(Theta{Mean: 0.1, Sigma: 0.01, Skew: 0.2})
	if !m.IsLVF() {
		t.Error("FromLVF must be λ=0")
	}
	if s := m.Dist(); math.Abs(s.Mean()-0.1) > 1e-9 {
		t.Errorf("mean %v", s.Mean())
	}
}

func TestNewTimingVarFacade(t *testing.T) {
	xs := bimodalSamples(3000, 9)
	v, err := NewTimingVar(KindLVF2, xs, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := v.Sum(v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Dist().Mean()-2*v.Dist().Mean()) > 1e-6 {
		t.Error("self-sum mean should double")
	}
	if _, err := ParseLibertyReader(strings.NewReader("library (x) { }")); err != nil {
		t.Errorf("reader parse: %v", err)
	}
}

func TestFacadeExtensions(t *testing.T) {
	xs := bimodalSamples(8000, 40)
	if len(ExtendedModelKinds()) != 6 {
		t.Error("extended kinds")
	}
	for _, k := range []ModelKind{KindLN, KindLSN} {
		d, err := FitKind(k, xs, FitOptions{})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if d.Mean() <= 0 {
			t.Errorf("%v mean %v", k, d.Mean())
		}
	}
}

func TestFacadeLint(t *testing.T) {
	g, err := ParseLiberty(`library (x) { cell (C) { pin (P) { direction : input; } } }`)
	if err != nil {
		t.Fatal(err)
	}
	issues := LintLibrary(g)
	if len(issues) == 0 {
		t.Fatal("output-less cell should warn")
	}
	if LintHasErrors(issues) {
		t.Error("warnings only expected")
	}
}
