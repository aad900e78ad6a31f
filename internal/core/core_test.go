package core

import (
	"math"
	"math/rand"
	"testing"

	"lvf2/internal/fit"
	"lvf2/internal/stats"
)

func TestThetaSNRoundTrip(t *testing.T) {
	th := Theta{Mean: 0.1, Sigma: 0.01, Skew: 0.4}
	back := ThetaOf(th.SN())
	if math.Abs(back.Mean-th.Mean) > 1e-10 ||
		math.Abs(back.Sigma-th.Sigma) > 1e-10 ||
		math.Abs(back.Skew-th.Skew) > 1e-6 {
		t.Errorf("round trip: %+v -> %+v", th, back)
	}
}

func TestFromLVFBackwardCompatibility(t *testing.T) {
	// eq. (10): an LVF θ lifted to LVF² with λ=0 must have an identical
	// distribution.
	th := Theta{Mean: 0.2, Sigma: 0.02, Skew: -0.3}
	m := FromLVF(th)
	if !m.IsLVF() {
		t.Fatal("λ=0 model must report IsLVF")
	}
	sn := th.SN()
	for _, x := range []float64{0.15, 0.2, 0.25} {
		if math.Abs(m.PDF(x)-sn.PDF(x)) > 1e-13 {
			t.Errorf("PDF differs at %v", x)
		}
		if math.Abs(m.CDF(x)-sn.CDF(x)) > 1e-11 {
			t.Errorf("CDF differs at %v", x)
		}
	}
}

func TestModelValidate(t *testing.T) {
	good := Model{Lambda: 0.3, Theta1: Theta{1, 0.1, 0}, Theta2: Theta{2, 0.1, 0}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	if err := (Model{Lambda: -0.1}).Validate(); err == nil {
		t.Error("negative lambda accepted")
	}
	if err := (Model{Lambda: 1.5}).Validate(); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if err := (Model{Lambda: math.NaN()}).Validate(); err == nil {
		t.Error("NaN lambda accepted")
	}
	bad := Model{Lambda: 0.5, Theta1: Theta{1, -1, 0}}
	if err := bad.Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
}

func TestModelMeanMatchesDist(t *testing.T) {
	m := Model{
		Lambda: 0.25,
		Theta1: Theta{Mean: 0.1, Sigma: 0.01, Skew: 0.3},
		Theta2: Theta{Mean: 0.15, Sigma: 0.02, Skew: -0.2},
	}
	if math.Abs(m.Mean()-m.Dist().Mean()) > 1e-12 {
		t.Errorf("Mean %v vs Dist().Mean %v", m.Mean(), m.Dist().Mean())
	}
}

func TestFitModelOnBimodal(t *testing.T) {
	truth, _ := stats.NewMixture(
		[]float64{0.7, 0.3},
		[]stats.Dist{
			stats.SNFromMoments(0.10, 0.005, 0.5),
			stats.SNFromMoments(0.13, 0.004, 0.5),
		})
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	m, err := FitModel(xs, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.IsLVF() {
		t.Fatal("bimodal data must yield a two-component fit")
	}
	if math.Abs(m.Lambda-0.3) > 0.05 {
		t.Errorf("lambda %v want ~0.3", m.Lambda)
	}
	if math.Abs(m.Theta1.Mean-0.10) > 0.003 || math.Abs(m.Theta2.Mean-0.13) > 0.003 {
		t.Errorf("component means %v %v", m.Theta1.Mean, m.Theta2.Mean)
	}
	// Model CDF tracks the truth.
	for _, x := range []float64{0.095, 0.11, 0.125, 0.14} {
		if d := math.Abs(m.CDF(x) - truth.CDF(x)); d > 0.015 {
			t.Errorf("CDF error %v at %v", d, x)
		}
	}
}

func TestFitLVFModel(t *testing.T) {
	sn := stats.SNFromMoments(0.1, 0.01, 0.6)
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = sn.Sample(rng)
	}
	m, err := FitLVFModel(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsLVF() {
		t.Error("LVF fit must be single-component")
	}
	if math.Abs(m.Theta1.Mean-0.1) > 0.001 || math.Abs(m.Theta1.Sigma-0.01) > 0.001 {
		t.Errorf("theta %+v", m.Theta1)
	}
}

func TestFitResultRoundTrip(t *testing.T) {
	m := Model{
		Lambda: 0.2,
		Theta1: Theta{0.1, 0.01, 0.3},
		Theta2: Theta{0.14, 0.008, -0.1},
	}
	back := FromFitResult(m.ToFitResult())
	if math.Abs(back.Lambda-m.Lambda) > 1e-12 ||
		math.Abs(back.Theta1.Mean-m.Theta1.Mean) > 1e-9 ||
		math.Abs(back.Theta2.Skew-m.Theta2.Skew) > 1e-6 {
		t.Errorf("round trip %+v -> %+v", m, back)
	}
}

func TestModelMomentsSaneForMixture(t *testing.T) {
	m := Model{
		Lambda: 0.4,
		Theta1: Theta{Mean: 1, Sigma: 0.1, Skew: 0},
		Theta2: Theta{Mean: 2, Sigma: 0.1, Skew: 0},
	}
	mom := m.Moments()
	// Mixture of well-separated equal-σ normals: mean = 1.4.
	if math.Abs(mom.Mean-1.4) > 1e-9 {
		t.Errorf("mean %v", mom.Mean)
	}
	// Var = w1σ² + w2σ² + w1w2(μ2−μ1)² = 0.01 + 0.24 = 0.25.
	if math.Abs(mom.Variance-0.25) > 1e-6 {
		t.Errorf("variance %v", mom.Variance)
	}
}

func TestFitMixModelThreeComponents(t *testing.T) {
	// A k-component fit carried through the moments parameterisation
	// θ = (μ, σ, γ), component by component, must still describe the
	// sampled three-peak mixture.
	truth, _ := stats.NewMixture(
		[]float64{0.5, 0.3, 0.2},
		[]stats.Dist{
			stats.SNFromMoments(0.10, 0.004, 0.3),
			stats.SNFromMoments(0.13, 0.004, 0.3),
			stats.SNFromMoments(0.16, 0.005, 0.2),
		})
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	r, err := fit.FitSNMixK(xs, 3, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.K() != 3 {
		t.Fatalf("K = %d", r.K())
	}
	var sum float64
	ds := make([]stats.Dist, r.K())
	for i, c := range r.Comps {
		w := r.Weights[i]
		if w < 0 || w > 1 || math.IsNaN(w) {
			t.Errorf("component %d weight %v out of [0,1]", i+1, w)
		}
		sum += w
		th := ThetaOf(c)
		if th.Sigma < 0 {
			t.Errorf("component %d has negative sigma", i+1)
		}
		ds[i] = th.SN()
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	d, err := stats.NewMixture(r.Weights, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.11, 0.14, 0.17} {
		if diff := math.Abs(d.CDF(x) - truth.CDF(x)); diff > 0.02 {
			t.Errorf("CDF diff %v at %v", diff, x)
		}
	}
	// λ1 is the dominant share.
	if r.Weights[0] < 0.35 {
		t.Errorf("lambda1 %v", r.Weights[0])
	}
}
