package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSkewNormalReducesToNormal(t *testing.T) {
	s := SkewNormal{Xi: 1, Omega: 2, Alpha: 0}
	n := Normal{Mu: 1, Sigma: 2}
	for _, x := range []float64{-4, 0, 1, 3.7, 9} {
		if !almostEqual(s.PDF(x), n.PDF(x), 1e-13) {
			t.Errorf("PDF mismatch at %v", x)
		}
		if !almostEqual(s.CDF(x), n.CDF(x), 1e-11) {
			t.Errorf("CDF mismatch at %v: %v vs %v", x, s.CDF(x), n.CDF(x))
		}
	}
	if s.Skewness() != 0 {
		t.Error("alpha=0 skewness must be 0")
	}
}

func TestSkewNormalPDFIntegratesToOne(t *testing.T) {
	for _, alpha := range []float64{-8, -1, 0, 0.5, 3, 20} {
		s := SkewNormal{Xi: 0.5, Omega: 1.3, Alpha: alpha}
		tot := integrate(s.PDF, 0.5-15*1.3, 0.5+15*1.3, 60)
		if !almostEqual(tot, 1, 1e-9) {
			t.Errorf("alpha=%v: integral = %v", alpha, tot)
		}
	}
}

func TestSkewNormalCDFMatchesIntegral(t *testing.T) {
	s := SkewNormal{Xi: -1, Omega: 0.7, Alpha: 4}
	lo := s.Xi - 14*s.Omega
	for _, x := range []float64{-2, -1.2, -0.8, -0.3, 0.5} {
		want := integrate(s.PDF, lo, x, 60)
		if got := s.CDF(x); !almostEqual(got, want, 1e-9) {
			t.Errorf("CDF(%v) = %v, integral %v", x, got, want)
		}
	}
}

func TestSkewNormalMomentsAgainstQuadrature(t *testing.T) {
	s := SkewNormal{Xi: 2, Omega: 0.9, Alpha: -3}
	mQ := integrate(func(x float64) float64 { return x * s.PDF(x) },
		2-15*0.9, 2+15*0.9, 60)
	if !almostEqual(s.Mean(), mQ, 1e-9) {
		t.Errorf("Mean %v vs quadrature %v", s.Mean(), mQ)
	}
	vQ := integrate(func(x float64) float64 {
		d := x - s.Mean()
		return d * d * s.PDF(x)
	}, 2-15*0.9, 2+15*0.9, 60)
	if !almostEqual(s.Variance(), vQ, 1e-9) {
		t.Errorf("Variance %v vs quadrature %v", s.Variance(), vQ)
	}
	skQ := integrate(func(x float64) float64 {
		d := (x - s.Mean()) / math.Sqrt(s.Variance())
		return d * d * d * s.PDF(x)
	}, 2-15*0.9, 2+15*0.9, 60)
	if !almostEqual(s.Skewness(), skQ, 1e-8) {
		t.Errorf("Skewness %v vs quadrature %v", s.Skewness(), skQ)
	}
}

func TestSNFromMomentsBijection(t *testing.T) {
	// Round trip: params -> moments -> params -> moments.
	for _, alpha := range []float64{-5, -1, -0.2, 0, 0.7, 2, 10} {
		orig := SkewNormal{Xi: 1.5, Omega: 0.25, Alpha: alpha}
		m, sd, g := orig.Moments()
		back := SNFromMoments(m, sd, g)
		m2, sd2, g2 := back.Moments()
		if !almostEqual(m, m2, 1e-9) || !almostEqual(sd, sd2, 1e-9) || !almostEqual(g, g2, 1e-6) {
			t.Errorf("alpha=%v: moments (%v,%v,%v) -> (%v,%v,%v)",
				alpha, m, sd, g, m2, sd2, g2)
		}
	}
}

func TestSNFromMomentsClampsSkewness(t *testing.T) {
	s := SNFromMoments(0, 1, 5) // unattainable skewness
	_, _, g := s.Moments()
	if g > MaxSNSkewness+1e-6 {
		t.Errorf("clamped skewness %v exceeds max", g)
	}
	if math.IsNaN(s.Xi) || math.IsNaN(s.Omega) || math.IsNaN(s.Alpha) {
		t.Errorf("NaN params after clamping: %+v", s)
	}
	neg := SNFromMoments(0, 1, -5)
	if _, _, gn := neg.Moments(); gn < -MaxSNSkewness-1e-6 {
		t.Errorf("negative clamp failed: %v", gn)
	}
}

func TestSNFromMomentsZeroSigma(t *testing.T) {
	s := SNFromMoments(3, 0, 0.5)
	if s.Xi != 3 || s.Omega != 0 {
		t.Errorf("degenerate fit: %+v", s)
	}
}

// TestSkewNormalCDFDegenerate: ω ≤ 0 is a point mass at ξ, so the CDF
// is a step there.
func TestSkewNormalCDFDegenerate(t *testing.T) {
	s := SkewNormal{Xi: 1, Omega: 0, Alpha: 2}
	for _, c := range []struct{ x, want float64 }{{0.5, 0}, {1, 1}, {1.5, 1}} {
		if got := s.CDF(c.x); got != c.want {
			t.Errorf("CDF(%v) = %v, want %v (step at Xi)", c.x, got, c.want)
		}
	}
}

func TestSkewNormalSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := SkewNormal{Xi: 0, Omega: 1, Alpha: 5}
	xs := make([]float64, 300000)
	for i := range xs {
		xs[i] = s.Sample(rng)
	}
	m := Moments(xs)
	if !almostEqual(m.Mean, s.Mean(), 5e-3) {
		t.Errorf("sample mean %v want %v", m.Mean, s.Mean())
	}
	if !almostEqual(m.Std(), math.Sqrt(s.Variance()), 5e-3) {
		t.Errorf("sample std %v want %v", m.Std(), math.Sqrt(s.Variance()))
	}
	if !almostEqual(m.Skewness, s.Skewness(), 2e-2) {
		t.Errorf("sample skew %v want %v", m.Skewness, s.Skewness())
	}
}

func TestSkewNormalQuantileRoundTrip(t *testing.T) {
	s := SkewNormal{Xi: 1, Omega: 0.1, Alpha: -2}
	for _, p := range []float64{0.001, 0.05, 0.5, 0.77, 0.999} {
		x := s.Quantile(p)
		if got := s.CDF(x); !almostEqual(got, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestSNCumulantsRoundTrip(t *testing.T) {
	s := SkewNormal{Xi: 0.2, Omega: 0.05, Alpha: 3}
	k1, k2, k3 := s.Cumulants()
	back := SNFromCumulants(k1, k2, k3)
	b1, b2, b3 := back.Cumulants()
	if !almostEqual(k1, b1, 1e-12) || !almostEqual(k2, b2, 1e-12) || !almostEqual(k3, b3, 1e-10) {
		t.Errorf("cumulant round trip: (%v,%v,%v) vs (%v,%v,%v)", k1, k2, k3, b1, b2, b3)
	}
}

// Property: for any moments with attainable skewness, SNFromMoments
// reproduces them.
func TestSNFromMomentsProperty(t *testing.T) {
	f := func(mr, sr, gr float64) bool {
		mean := math.Mod(mr, 100)
		sd := math.Abs(math.Mod(sr, 10)) + 1e-3
		g := math.Mod(gr, 0.99)
		s := SNFromMoments(mean, sd, g)
		m2, sd2, g2 := s.Moments()
		return almostEqual(mean, m2, 1e-8*(1+math.Abs(mean))) &&
			almostEqual(sd, sd2, 1e-8*(1+sd)) &&
			almostEqual(g, g2, 1e-5)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
