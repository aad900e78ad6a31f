package stats

import (
	"math"
	"testing"
)

// batchAlphas spans the shapes the fitters produce: symmetric, moderate,
// the ±MaxSNSkewness moment-match boundary, extreme and non-finite.
func batchAlphas() []float64 {
	bMax := SNFromMoments(0, 1, MaxSNSkewness)
	bMin := SNFromMoments(0, 1, -MaxSNSkewness)
	return []float64{0, 0.5, -0.5, 1, -1, 4, -4, bMax.Alpha, bMin.Alpha, 40, -40, math.Inf(1), math.Inf(-1)}
}

// batchGrid covers the bulk and the far tails (z beyond ±12).
func batchGrid(s SkewNormal) []float64 {
	var xs []float64
	for z := -14.0; z <= 14.0; z += 0.25 {
		xs = append(xs, s.Xi+z*s.Omega)
	}
	return xs
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// TestSkewNormalCDFsMatchesScalar cross-checks the batch CDF against the
// scalar CDF over a wide shape × point grid. Both go through the one
// Owen's T kernel, so they agree bit for bit.
func TestSkewNormalCDFsMatchesScalar(t *testing.T) {
	for _, alpha := range batchAlphas() {
		s := SkewNormal{Xi: 0.1, Omega: 0.01, Alpha: alpha}
		xs := batchGrid(s)
		got := s.CDFs(nil, xs)
		for i, x := range xs {
			want := s.CDF(x)
			if math.IsNaN(got[i]) || got[i] != want {
				t.Fatalf("alpha=%v x=%v: CDFs=%v CDF=%v", alpha, x, got[i], want)
			}
		}
	}
}

// TestSkewNormalPDFsMatchesScalar cross-checks the batch PDF.
func TestSkewNormalPDFsMatchesScalar(t *testing.T) {
	for _, alpha := range batchAlphas() {
		if math.IsInf(alpha, 0) {
			continue // scalar PDF is also defined, but Φ(±Inf·0) at z=0 differs by convention
		}
		s := SkewNormal{Xi: 0.1, Omega: 0.01, Alpha: alpha}
		xs := batchGrid(s)
		got := s.PDFs(nil, xs)
		for i, x := range xs {
			want := s.PDF(x)
			if math.IsNaN(got[i]) || relDiff(got[i], want) > 1e-12 {
				t.Fatalf("alpha=%v x=%v: PDFs=%v PDF=%v", alpha, x, got[i], want)
			}
		}
	}
}

// TestSkewNormalLogPDFsMatchesScalar checks log f against log(PDF) where
// the scalar density has not underflowed, and finiteness everywhere.
func TestSkewNormalLogPDFsMatchesScalar(t *testing.T) {
	for _, alpha := range batchAlphas() {
		if math.IsInf(alpha, 0) {
			continue
		}
		s := SkewNormal{Xi: 0.1, Omega: 0.01, Alpha: alpha}
		xs := batchGrid(s)
		got := s.LogPDFs(nil, xs)
		for i, x := range xs {
			if math.IsNaN(got[i]) {
				t.Fatalf("alpha=%v x=%v: LogPDFs is NaN", alpha, x)
			}
			p := s.PDF(x)
			if p > 1e-250 {
				if math.Abs(got[i]-math.Log(p)) > 1e-9*math.Max(1, math.Abs(got[i])) {
					t.Fatalf("alpha=%v x=%v: LogPDFs=%v log(PDF)=%v", alpha, x, got[i], math.Log(p))
				}
			}
		}
	}
}

// TestBatchCDFDegenerate checks the ω ≤ 0 step-function branches.
func TestBatchCDFDegenerate(t *testing.T) {
	s := SkewNormal{Xi: 1, Omega: 0, Alpha: 2}
	cs := s.CDFs(nil, []float64{0.5, 1, 1.5})
	if cs[0] != 0 || cs[1] != 1 || cs[2] != 1 {
		t.Fatalf("degenerate SN CDFs = %v, want step at Xi", cs)
	}
	nrm := Normal{Mu: 1, Sigma: 0}
	cs = nrm.CDFs(cs, []float64{0.5, 1, 1.5})
	if cs[0] != 0 || cs[1] != 1 || cs[2] != 1 {
		t.Fatalf("degenerate Normal CDFs = %v, want step at Mu", cs)
	}
}

// TestNormalCDFsMatchesScalar cross-checks the Gaussian batch CDF.
func TestNormalCDFsMatchesScalar(t *testing.T) {
	nrm := Normal{Mu: 0.1, Sigma: 0.02}
	xs := []float64{-0.3, 0, 0.05, 0.1, 0.15, 0.4, 1}
	got := nrm.CDFs(nil, xs)
	for i, x := range xs {
		if relDiff(got[i], nrm.CDF(x)) > 1e-12 {
			t.Fatalf("x=%v: CDFs=%v CDF=%v", x, got[i], nrm.CDF(x))
		}
	}
}

// TestMixtureCDFsMatchesScalar cross-checks the mixture batch CDF, which
// exercises the per-component BatchCDF dispatch; it sums the components
// in the scalar CDF's order, so the two agree bit for bit.
func TestMixtureCDFsMatchesScalar(t *testing.T) {
	m, err := NewMixture([]float64{0.6, 0.4}, []Dist{
		SNFromMoments(0.10, 0.005, 0.6),
		SNFromMoments(0.13, 0.004, -0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := batchGrid(SkewNormal{Xi: 0.115, Omega: 0.015})
	got := m.CDFs(nil, xs)
	for i, x := range xs {
		want := m.CDF(x)
		if got[i] != want {
			t.Fatalf("x=%v: CDFs=%v CDF=%v", x, got[i], want)
		}
	}
}

// TestCDFsReusesDst checks the dst-reuse contract.
func TestCDFsReusesDst(t *testing.T) {
	s := SNFromMoments(0, 1, 0.5)
	buf := make([]float64, 8)
	out := s.CDFs(buf, []float64{-1, 0, 1})
	if &out[0] != &buf[0] || len(out) != 3 {
		t.Fatalf("CDFs did not reuse dst (len=%d)", len(out))
	}
}
