package ssta

import (
	"math"
	"math/rand"
	"testing"

	"lvf2/internal/binning"
	"lvf2/internal/fit"
	"lvf2/internal/stats"
)

// makeStages builds nStages independent bimodal stage-delay sample sets.
func makeStages(nStages, nSamples int, seed int64) []Stage {
	rng := rand.New(rand.NewSource(seed))
	truth, _ := stats.NewMixture(
		[]float64{0.7, 0.3},
		[]stats.Dist{
			stats.SNFromMoments(0.020, 0.0012, 0.45),
			stats.SNFromMoments(0.026, 0.0010, 0.35),
		})
	stages := make([]Stage, nStages)
	for s := range stages {
		xs := make([]float64, nSamples)
		for i := range xs {
			xs[i] = truth.Sample(rng)
		}
		stages[s] = Stage{Label: "stage", Samples: xs, Nominal: 0.021}
	}
	return stages
}

func TestPropagateChainGoldenAccumulation(t *testing.T) {
	stages := makeStages(4, 3000, 1)
	res, err := PropagateChain(stages, []fit.Model{fit.ModelLVF}, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	// Golden mean grows additively.
	m1 := res[0].Golden.Mean()
	m4 := res[3].Golden.Mean()
	if math.Abs(m4-4*m1) > 0.02*m4 {
		t.Errorf("golden mean after 4 stages %v, want ~%v", m4, 4*m1)
	}
	// Nominal accumulates.
	if !almostEqual(res[3].CumNominal, 4*0.021, 1e-12) {
		t.Errorf("cumulative nominal %v", res[3].CumNominal)
	}
}

func TestPropagateChainModelTracksGolden(t *testing.T) {
	stages := makeStages(6, 4000, 2)
	fams := []fit.Model{fit.ModelLVF, fit.ModelLVF2}
	res, err := PropagateChain(stages, fams, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := res[len(res)-1]
	for _, fam := range fams {
		v, ok := last.Vars[fam]
		if !ok {
			t.Fatalf("%v: missing var (err: %v)", fam, last.PropagateErrs[fam])
		}
		d := v.Dist()
		gm := last.Golden.Mean()
		if math.Abs(d.Mean()-gm)/gm > 0.01 {
			t.Errorf("%v: propagated mean %v vs golden %v", fam, d.Mean(), gm)
		}
		gs := math.Sqrt(last.Golden.Variance())
		if math.Abs(math.Sqrt(d.Variance())-gs)/gs > 0.05 {
			t.Errorf("%v: propagated std %v vs golden %v", fam, math.Sqrt(d.Variance()), gs)
		}
	}
}

// The paper's CLT claim (§3.4 / Fig. 5): LVF²'s binning-error advantage
// over LVF decays as stages accumulate.
func TestAdvantageDecaysWithDepth(t *testing.T) {
	stages := makeStages(12, 6000, 3)
	fams := []fit.Model{fit.ModelLVF, fit.ModelLVF2}
	res, err := PropagateChain(stages, fams, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reduction := func(r StageResult) float64 {
		mLVF := binning.Evaluate(r.Vars[fit.ModelLVF].Dist(), r.Golden)
		mLVF2 := binning.Evaluate(r.Vars[fit.ModelLVF2].Dist(), r.Golden)
		return binning.Cap(binning.ErrorReduction(mLVF.BinErr, mLVF2.BinErr), 100)
	}
	early := reduction(res[0])
	late := reduction(res[len(res)-1])
	if early <= 1 {
		t.Errorf("stage-1 reduction %v should exceed 1 on bimodal stages", early)
	}
	if late >= early {
		t.Errorf("reduction should decay with depth: early %v late %v", early, late)
	}
}

func TestPropagateChainErrors(t *testing.T) {
	if _, err := PropagateChain(nil, nil, fit.Options{}); err == nil {
		t.Error("empty chain accepted")
	}
	bad := []Stage{
		{Label: "a", Samples: []float64{1, 2, 3}},
		{Label: "b", Samples: []float64{1, 2}},
	}
	if _, err := PropagateChain(bad, nil, fit.Options{}); err == nil {
		t.Error("mismatched sample counts accepted")
	}
}

func TestPropagateChainRecordsFitErrors(t *testing.T) {
	// LESN cannot fit non-positive samples; the chain must keep going and
	// record the error rather than fail.
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64() // spans negative values
	}
	stages := []Stage{{Label: "s", Samples: xs}}
	res, err := PropagateChain(stages, []fit.Model{fit.ModelLESN, fit.ModelLVF}, fit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].PropagateErrs[fit.ModelLESN] == nil {
		t.Error("LESN fit error not recorded")
	}
	if _, ok := res[0].Vars[fit.ModelLVF]; !ok {
		t.Error("LVF should still propagate")
	}
}

func TestBerryEsseenBound(t *testing.T) {
	if !math.IsNaN(BerryEsseenBound(1, 0)) {
		t.Error("n=0 must be NaN")
	}
	b1 := BerryEsseenBound(2, 4)
	if !almostEqual(b1, BerryEsseenConstant, 1e-12) {
		t.Errorf("bound %v", b1)
	}
	// O(1/√n): quadrupling n halves the bound.
	if !almostEqual(BerryEsseenBound(2, 16), b1/2, 1e-12) {
		t.Error("bound does not scale as 1/sqrt(n)")
	}
}

func TestAbsThirdStandardizedMoment(t *testing.T) {
	// For a standard normal ρ = E|Z|³ = 2√(2/π) ≈ 1.5958.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 400000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	rho := AbsThirdStandardizedMoment(xs)
	if math.Abs(rho-1.5958) > 0.02 {
		t.Errorf("rho %v want ~1.5958", rho)
	}
	if !math.IsNaN(AbsThirdStandardizedMoment(nil)) {
		t.Error("empty must be NaN")
	}
	if !math.IsNaN(AbsThirdStandardizedMoment([]float64{1, 1, 1})) {
		t.Error("constant must be NaN")
	}
}
