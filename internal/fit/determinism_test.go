package fit

import (
	"math"
	"runtime"
	"testing"

	"lvf2/internal/mc"
	"lvf2/internal/stats"
)

// determinismSamples synthesises a bimodal skewed sample large enough for
// the parallel multi-start gate (n ≥ parallelMinN) from a fixed seed.
func determinismSamples(t testing.TB, n int, seed uint64) []float64 {
	t.Helper()
	m, err := stats.NewMixture([]float64{0.65, 0.35}, []stats.Dist{
		stats.SNFromMoments(0.100, 0.0040, 0.80),
		stats.SNFromMoments(0.128, 0.0055, 0.40),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := mc.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = m.Sample(rng)
	}
	return xs
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func requireSameResult(t *testing.T, label string, a, b LVF2Result) {
	t.Helper()
	if !bitsEqual(a.Lambda, b.Lambda) ||
		!bitsEqual(a.C1.Xi, b.C1.Xi) || !bitsEqual(a.C1.Omega, b.C1.Omega) || !bitsEqual(a.C1.Alpha, b.C1.Alpha) ||
		!bitsEqual(a.C2.Xi, b.C2.Xi) || !bitsEqual(a.C2.Omega, b.C2.Omega) || !bitsEqual(a.C2.Alpha, b.C2.Alpha) ||
		!bitsEqual(a.LogLik, b.LogLik) {
		t.Fatalf("%s: results differ\n  a = %+v\n  b = %+v", label, a, b)
	}
}

// TestFitLVF2ParallelDeterminism pins the tentpole's bit-identical claim:
// the concurrent multi-start path (exercised under -cpu 4,8) must produce
// exactly the same fitted parameters as the serial path, and repeated runs
// must agree with each other. Run with -race to also check the parallel
// path for data races.
func TestFitLVF2ParallelDeterminism(t *testing.T) {
	for _, n := range []int{1500, 4000} {
		xs := determinismSamples(t, n, 9001)
		serial, err := FitLVF2(xs, Options{Serial: true})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			par, err := FitLVF2(xs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "serial vs default", serial, par)
		}
		// The Polish path shares the multi-start machinery; check it too.
		serialP, err := FitLVF2(xs, Options{Serial: true, Polish: true})
		if err != nil {
			t.Fatal(err)
		}
		parP, err := FitLVF2(xs, Options{Polish: true})
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "serial vs default (polish)", serialP, parP)
	}
}

// TestFitLVF2Golden pins the exact fitted parameters at a fixed seed, so a
// change that silently perturbs the numerics (reordering reductions,
// altering tolerances) is caught even when the fit stays statistically
// fine. The pinned bits are those of the Newton M-step at Revision
// "mstep-newton"; equality is bitwise. They are checked on amd64 only:
// elsewhere Go may fuse multiply-adds, which moves last bits, so other
// architectures check repeatability alone. A change that moves these bits
// must change Revision too.
func TestFitLVF2Golden(t *testing.T) {
	xs := determinismSamples(t, 2000, 424242)
	a, err := FitLVF2(xs, Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH == "amd64" {
		want := [8]uint64{
			0x3fd62df760d21e19, // λ  0.3465555615916585
			0x3fb8592c7a05b8c3, // ξ₁ 0.09511068324147502
			0x3f794b4b81004722, // ω₁ 0.0061753224727157125
			0x400fc013ed13bec0, // α₁ 3.9687880059862835
			0x3fbfa730f94a75ab, // ξ₂ 0.12364488683893764
			0x3f7d0055d0e30bf5, // ω₂ 0.007080397814379848
			0x3ff5f24616009c3f, // α₂ 1.3716488704174166
			0x40baab9c332a8dc0, // LogLik 6827.610155734641
		}
		got := [8]float64{a.Lambda, a.C1.Xi, a.C1.Omega, a.C1.Alpha, a.C2.Xi, a.C2.Omega, a.C2.Alpha, a.LogLik}
		for i, v := range got {
			if math.Float64bits(v) != want[i] {
				t.Errorf("golden value %d = %v (%#016x), want %v (%#016x)", i, v, math.Float64bits(v), math.Float64frombits(want[i]), want[i])
			}
		}
	}
	b, err := FitLVF2(xs, Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "repeatability", a, b)
	// Workspace reuse must not leak state between fits: interleave a fit
	// of a different sample and repeat.
	other := determinismSamples(t, 1200, 7)
	if _, err := FitLVF2(other, Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := FitLVF2(xs, Options{Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after interleaved fit", a, c)

	// Sanity on the recovered shape (loose: the golden pin above is the
	// strict guard).
	if a.Lambda <= 0.1 || a.Lambda > 0.5 {
		t.Fatalf("Lambda = %v, want in (0.1, 0.5]", a.Lambda)
	}
	if math.Abs(a.C1.Mean()-0.100) > 0.004 {
		t.Fatalf("C1 mean = %v, want near 0.100", a.C1.Mean())
	}
	if math.Abs(a.C2.Mean()-0.128) > 0.006 {
		t.Fatalf("C2 mean = %v, want near 0.128", a.C2.Mean())
	}
}
