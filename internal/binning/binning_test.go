package binning

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lvf2/internal/stats"
)

func TestSigmaBoundaries(t *testing.T) {
	b := SigmaBoundaries(10, 2)
	want := []float64{4, 6, 8, 10, 12, 14, 16}
	if len(b) != 7 {
		t.Fatalf("len %d", len(b))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("b[%d] = %v want %v", i, b[i], want[i])
		}
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	n := stats.Normal{Mu: 0, Sigma: 1}
	b := SigmaBoundaries(0, 1)
	p := DistProbabilities(n, b)
	if len(p) != 8 {
		t.Fatalf("want 8 bins, got %d", len(p))
	}
	var s float64
	for _, v := range p {
		if v < 0 {
			t.Errorf("negative bin prob %v", v)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Errorf("bin probs sum to %v", s)
	}
	// Standard normal: innermost bins ≈ 34.13%, outer ≈ 13.59%, 2.14%, 0.13%.
	wants := []float64{0.00135, 0.02140, 0.13591, 0.34134, 0.34134, 0.13591, 0.02140, 0.00135}
	for i, w := range wants {
		if math.Abs(p[i]-w) > 2e-4 {
			t.Errorf("bin %d prob %v want %v", i, p[i], w)
		}
	}
}

func TestProbabilitiesMonotonicityGuard(t *testing.T) {
	// A noisy CDF that wiggles slightly downwards must not produce
	// negative probabilities.
	calls := 0
	cdf := func(x float64) float64 {
		calls++
		if calls == 2 {
			return 0.3 // lower than the previous call's 0.4
		}
		return 0.4
	}
	p := Probabilities(cdf, Boundaries{1, 2})
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability: %v", p)
		}
	}
}

func TestBinningErrorAgainstGolden(t *testing.T) {
	if !math.IsNaN(BinningError([]float64{1}, []float64{1, 2})) {
		t.Error("length mismatch must be NaN")
	}
	got := BinningError([]float64{0.5, 0.5}, []float64{0.4, 0.6})
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("binning error %v", got)
	}
}

func TestYieldErrorPerfectModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := stats.Normal{Mu: 5, Sigma: 1}
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = n.Sample(rng)
	}
	e := stats.NewEmpirical(xs)
	if ye := YieldError(n, e); ye > 0.002 {
		t.Errorf("yield error of the true model should be tiny: %v", ye)
	}
}

func TestCDFRMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	truth := stats.Normal{Mu: 0, Sigma: 1}
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	e := stats.NewEmpirical(xs)
	good := CDFRMSE(truth, e, 2000)
	bad := CDFRMSE(stats.Normal{Mu: 1, Sigma: 1}, e, 2000)
	if good > 0.01 {
		t.Errorf("true model RMSE %v", good)
	}
	if bad < 10*good {
		t.Errorf("shifted model RMSE %v should dwarf %v", bad, good)
	}
	if !math.IsNaN(CDFRMSE(truth, stats.NewEmpirical(nil), 10)) {
		t.Error("empty sample must give NaN")
	}
}

func TestErrorReductionAndCap(t *testing.T) {
	if got := ErrorReduction(0.2, 0.1); math.Abs(got-2) > 1e-12 {
		t.Errorf("reduction %v", got)
	}
	if !math.IsInf(ErrorReduction(0.2, 0), 1) {
		t.Error("zero result error must be +Inf")
	}
	if got := ErrorReduction(0, 0); got != 1 {
		t.Errorf("both-zero errors must compare as 1, got %v", got)
	}
	if got := ErrorReduction(0, 0.5); got != 0 {
		t.Errorf("zero baseline vs nonzero result must be 0, got %v", got)
	}
	// Errors of at most 1e-12 are floating-point noise and count as zero:
	// a saturated yield's 1.1e-16 must not turn a tie into +Inf (100×
	// after Cap).
	for _, c := range []struct{ base, res, want float64 }{
		{1.1e-16, 0, 1},
		{1e-12, 0, 1},
		{0, 1e-12, 1},
		{-1.1e-16, 2e-13, 1},
		{1.1e-16, 0.5, 0},
		{0.2, 1e-13, math.Inf(1)},
		{2e-12, 0, math.Inf(1)},
		{3e-12, 1.5e-12, 2},
	} {
		if got := ErrorReduction(c.base, c.res); got != c.want && !(math.Abs(got-c.want) <= 1e-12*c.want) {
			t.Errorf("ErrorReduction(%g, %g) = %v, want %v", c.base, c.res, got, c.want)
		}
	}
	if Cap(math.Inf(1), 100) != 100 {
		t.Error("cap must clip Inf")
	}
	if Cap(3, 100) != 3 {
		t.Error("cap must pass small values")
	}
}

func TestEvaluateAndReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth, _ := stats.NewMixture(
		[]float64{0.6, 0.4},
		[]stats.Dist{
			stats.Normal{Mu: 0, Sigma: 0.3},
			stats.Normal{Mu: 2, Sigma: 0.3},
		})
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	e := stats.NewEmpirical(xs)

	mTruth := Evaluate(truth, e)
	sm := e.Moments()
	single := stats.Normal{Mu: sm.Mean, Sigma: sm.Std()}
	mSingle := Evaluate(single, e)

	if mTruth.BinErr >= mSingle.BinErr {
		t.Errorf("truth bin err %v should beat single-Gaussian %v", mTruth.BinErr, mSingle.BinErr)
	}
	red := Reductions(mTruth, mSingle)
	if red.BinErr <= 1 {
		t.Errorf("reduction should exceed 1: %v", red.BinErr)
	}
}

func TestExpectedRevenue(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.3, 0.4}
	prices := []float64{0, 10, 8, 5}
	want := 0.2*10 + 0.3*8 + 0.4*5
	if got := ExpectedRevenue(probs, prices); math.Abs(got-want) > 1e-12 {
		t.Errorf("revenue %v want %v", got, want)
	}
	// Short price list truncates.
	if got := ExpectedRevenue(probs, prices[:2]); math.Abs(got-2) > 1e-12 {
		t.Errorf("truncated revenue %v", got)
	}
}

// Property: for any normal model, bin probabilities are a valid
// distribution over 8 bins.
func TestProbabilitiesProperty(t *testing.T) {
	f := func(mu, sdRaw float64) bool {
		sd := math.Abs(math.Mod(sdRaw, 10)) + 1e-3
		m := math.Mod(mu, 100)
		n := stats.Normal{Mu: m, Sigma: sd}
		p := DistProbabilities(n, SigmaBoundaries(m, sd))
		var s float64
		for _, v := range p {
			if v < -1e-15 {
				return false
			}
			s += v
		}
		return math.Abs(s-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(37))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
