package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestStdNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300945},
	}
	for _, c := range cases {
		if got := StdNormCDF(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("StdNormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestStdNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-9} {
		x := StdNormQuantile(p)
		if got := StdNormCDF(x); !almostEqual(got, p, 1e-11) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

// bigStdNormQuantile is the 256-bit root of Φ(x) = p by Newton on the
// residual Φ(x) − p, started from x0. Its error after a step s is about
// |x|s²/2, so it stops once |s| < 2⁻¹²⁰·max(1, |x|), leaving x within
// 2⁻²⁰⁰ of the root for |x| < 40. It reports false if the steps do not
// fall that far.
func bigStdNormQuantile(p, x0 float64) (*big.Float, bool) {
	x, target := bf(x0), bf(p)
	for i := 0; i < 50; i++ {
		step := bigQuo(bigSub(bigPhi(x), target), bigPhiDensity(x))
		x = bigSub(x, step)
		if step.Sign() == 0 || step.MantExp(nil) < max(x.MantExp(nil), 1)-120 {
			return x, true
		}
	}
	return x, false
}

// TestStdNormQuantileOracle pins Φ⁻¹ against the 256-bit reference:
// |ΔQ| ≤ 1e-15·max(1, |Q|) on log-spaced p from 1e-300 to ½, on upper
// tail points u whose complement 1 − u is exact (down to 1 − u = 2⁻⁵³),
// and on a uniform grid; and Q(1 − p) = −Q(p) bit for bit wherever
// 1 − p is exact. A round trip Φ(Q(p)) ≈ p cannot see an error in x
// where φ(x) is tiny, so the reference is solved in x.
func TestStdNormQuantileOracle(t *testing.T) {
	var ps []float64
	const nLog = 600
	for i := 0; i < nLog; i++ { // lower tail and centre
		ps = append(ps, math.Pow(10, -300+float64(i)*(300-math.Log10(2))/(nLog-1)))
	}
	const nComp = 300
	for i := 0; i < nComp; i++ { // upper tail, from 1 − 2⁻¹ to 1 − 2⁻⁵³
		ps = append(ps, 1-math.Pow(2, -53+float64(i)*52/(nComp-1)))
	}
	const nUniform = 400
	for i := 0; i < nUniform; i++ {
		ps = append(ps, (float64(i)+0.5)/nUniform)
	}
	var worst, worstP float64
	for _, p := range ps {
		got := StdNormQuantile(p)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Φ⁻¹(%v) = %v", p, got)
		}
		// The reference for u > ½ is −Q(1 − u): 1 − u is exact there,
		// and the lower-tail residual keeps its relative precision.
		lo, sign := p, 1.0
		if p > 0.5 {
			lo, sign = 1-p, -1
		}
		ref, ok := bigStdNormQuantile(lo, sign*got)
		if !ok {
			t.Fatalf("reference Newton for Φ⁻¹(%v) did not converge", lo)
		}
		d, _ := bigSub(bf(got), bigMul(bf(sign), ref)).Float64()
		tol := 1e-15 * math.Max(1, math.Abs(got))
		if rel := math.Abs(d) / tol; rel > worst {
			worst, worstP = rel, p
		}
		if math.Abs(d) > tol {
			t.Errorf("Φ⁻¹(%v) = %v, off the reference by %.3g (bound %.3g)", p, got, d, tol)
		}
	}
	t.Logf("worst error %.3g of the bound, at p = %v", worst, worstP)

	// p = ½ is its own complement, and Q(½) is +0.
	for i := 1; i < 100000; i++ {
		for _, p := range []float64{float64(i) / 100000, math.Pow(2, -53*float64(i)/100000)} {
			if c := 1 - p; 1-c == p && p != 0.5 {
				if q, qc := StdNormQuantile(p), StdNormQuantile(c); math.Float64bits(qc) != math.Float64bits(-q) {
					t.Fatalf("Φ⁻¹(1 − %v) = %v, want −Φ⁻¹(%v) = %v bit for bit", p, qc, p, -q)
				}
			}
		}
	}
}

func TestStdNormQuantileEdge(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if !math.IsNaN(StdNormQuantile(p)) {
			t.Errorf("StdNormQuantile(%v) should be NaN", p)
		}
	}
}

func TestNormalDist(t *testing.T) {
	n := Normal{Mu: 2, Sigma: 3}
	if got := n.Mean(); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := n.Variance(); got != 9 {
		t.Errorf("Variance = %v", got)
	}
	if got := n.CDF(2); !almostEqual(got, 0.5, 1e-14) {
		t.Errorf("CDF(mu) = %v", got)
	}
	if got := n.Quantile(0.5); !almostEqual(got, 2, 1e-9) {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	// PDF integrates to 1.
	tot := integrate(n.PDF, 2-30, 2+30, 40)
	if !almostEqual(tot, 1, 1e-10) {
		t.Errorf("PDF integral = %v", tot)
	}
}

func TestNormalDegenerateSigma(t *testing.T) {
	n := Normal{Mu: 1, Sigma: 0}
	if n.CDF(0.999) != 0 || n.CDF(1.0) != 1 {
		t.Errorf("degenerate CDF: %v %v", n.CDF(0.999), n.CDF(1.0))
	}
	if n.PDF(0) != 0 {
		t.Errorf("degenerate PDF off-atom should be 0")
	}
}

func TestNormalSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := Normal{Mu: -1, Sigma: 0.5}
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = n.Sample(rng)
	}
	m := Moments(xs)
	if !almostEqual(m.Mean, -1, 5e-3) {
		t.Errorf("sample mean %v", m.Mean)
	}
	if !almostEqual(m.Std(), 0.5, 5e-3) {
		t.Errorf("sample std %v", m.Std())
	}
}

// Property: CDF is monotone non-decreasing for arbitrary normals.
func TestNormalCDFMonotoneProperty(t *testing.T) {
	f := func(mu, sigmaRaw, a, b float64) bool {
		sigma := math.Abs(sigmaRaw) + 1e-6
		n := Normal{Mu: mu, Sigma: sigma}
		if b < a {
			a, b = b, a
		}
		return n.CDF(a) <= n.CDF(b)+1e-15
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
