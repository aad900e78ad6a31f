package stats

import (
	"math"
	"math/big"
	"testing"
)

// A math/big reference for Φ, Owen's T and the skew-normal CDF, used to
// pin the float64 kernel's accuracy over |h| ≤ 8 and a ∈ ±[0.01, 40],
// a = ±1 and a = ±∞. It shares no code with owen.go: Q comes from a
// series or Laplace's continued fraction, T(h, a ≤ 1) from the series
//
//	T(h, a) = e^{−h²/2}/(2π) · Σ_j (−1)^j a^{2j+1}/(2j+1) · Σ_{i≤j} (h²/2)^i/i!,
//
// T(h, 1) from ½Φ(h)Q(h) and T(h, a > 1) from the reduction identity,
// which cannot cancel at 256 bits. mpmath 1.3.0 (50 digits, adaptive
// quadrature of the defining integral) agrees with it to 30 digits at
// the spot values in TestOracleMatchesMpmath.

const oraclePrec = 256

var (
	bigLn2 = mustBig("0.69314718055994530941723212145817656807550013436025525412068000949339362196969472")
	bigPi  = mustBig("3.141592653589793238462643383279502884197169399375105820974944592307816406286209")
)

func mustBig(s string) *big.Float {
	f, _, err := big.ParseFloat(s, 10, oraclePrec, big.ToNearestEven)
	if err != nil {
		panic(err)
	}
	return f
}

func bf(x float64) *big.Float { return new(big.Float).SetPrec(oraclePrec).SetFloat64(x) }

func bigAdd(x, y *big.Float) *big.Float { return bf(0).Add(x, y) }
func bigSub(x, y *big.Float) *big.Float { return bf(0).Sub(x, y) }
func bigMul(x, y *big.Float) *big.Float { return bf(0).Mul(x, y) }
func bigQuo(x, y *big.Float) *big.Float { return bf(0).Quo(x, y) }

// negligible reports whether term no longer moves sum at oraclePrec.
func negligible(term, sum *big.Float) bool {
	return term.Sign() == 0 || (sum.Sign() != 0 && term.MantExp(nil) < sum.MantExp(nil)-oraclePrec-8)
}

// bigExp is e^x: x = n·ln2 + r with |r| ≤ ln2/2, e^r by its Taylor series.
func bigExp(x *big.Float) *big.Float {
	q, _ := bigQuo(x, bigLn2).Float64()
	n := math.Round(q)
	r := bigSub(x, bigMul(bigLn2, bf(n)))
	sum, term := bf(1), bf(1)
	for k := 1; ; k++ {
		term = bigQuo(bigMul(term, r), bf(float64(k)))
		sum = bigAdd(sum, term)
		if negligible(term, sum) {
			break
		}
	}
	return sum.SetMantExp(sum, int(n))
}

// bigPhiDensity is φ(h) = e^{−h²/2}/√(2π).
func bigPhiDensity(h *big.Float) *big.Float {
	e := bigExp(bigMul(bf(-0.5), bigMul(h, h)))
	return bigQuo(e, bf(0).Sqrt(bigMul(bf(2), bigPi)))
}

// bigQ is the upper tail Q(h) = 1 − Φ(h) for h ≥ 0: ½ − φ(h)·Σ h^{2n+1}/(2n+1)!!
// below h = 5, Laplace's continued fraction φ(h)/(h + 1/(h + 2/(h + …)))
// from there on.
func bigQ(h *big.Float) *big.Float {
	if hf, _ := h.Float64(); hf < 5 {
		h2 := bigMul(h, h)
		sum, term := bf(0).Set(h), bf(0).Set(h)
		for n := 1; term.Sign() != 0; n++ {
			term = bigQuo(bigMul(term, h2), bf(float64(2*n+1)))
			sum = bigAdd(sum, term)
			if float64(n) > hf*hf && negligible(term, sum) {
				break
			}
		}
		return bigSub(bf(0.5), bigMul(bigPhiDensity(h), sum))
	}
	t := bf(0).Set(h)
	for k := 200; k >= 1; k-- { // relative error below 1e-55 from h = 5 on
		t = bigAdd(h, bigQuo(bf(float64(k)), t))
	}
	return bigQuo(bigPhiDensity(h), t)
}

// bigPhi is Φ(z).
func bigPhi(z float64) *big.Float {
	if z < 0 {
		return bigQ(bf(-z))
	}
	return bigSub(bf(1), bigQ(bf(z)))
}

// bigOwenT is T(h, a) for h ≥ 0 and a > 0 (a = +Inf allowed).
func bigOwenT(h *big.Float, a float64) *big.Float {
	switch {
	case math.IsInf(a, 1):
		return bigMul(bf(0.5), bigQ(h))
	case a == 1:
		q := bigQ(h)
		return bigMul(bf(0.5), bigMul(bigSub(bf(1), q), q))
	case a > 1:
		ah := bigMul(bf(a), h)
		qh, qah := bigQ(h), bigQ(ah)
		t := bigAdd(bigMul(bf(0.5), qh), bigMul(bf(0.5), qah))
		t = bigSub(t, bigMul(qh, qah))
		return bigSub(t, bigOwenTSeries(ah, bigQuo(bf(1), bf(a))))
	}
	return bigOwenTSeries(h, bf(a))
}

// bigOwenTSeries sums the alternating series for 0 < a < 1. Its terms
// grow until j ≈ a²h²/2 and fall geometrically after.
func bigOwenTSeries(h, a *big.Float) *big.Float {
	x := bigMul(bf(0.5), bigMul(h, h))
	a2 := bigMul(a, a)
	peak, _ := bigMul(a2, x).Float64()
	pow := bf(0).Set(a) // a^{2j+1}
	xi := bf(1)         // x^j / j!
	partial := bf(1)    // Σ_{i≤j} x^i/i!
	sum := bf(0)
	for j := 0; ; j++ {
		term := bigQuo(bigMul(pow, partial), bf(float64(2*j+1)))
		if j%2 == 1 {
			term.Neg(term)
		}
		sum = bigAdd(sum, term)
		if float64(j) > peak && negligible(term, sum) {
			break
		}
		pow = bigMul(pow, a2)
		xi = bigQuo(bigMul(xi, x), bf(float64(j+1)))
		partial = bigAdd(partial, xi)
	}
	return bigQuo(bigMul(bigExp(bigMul(bf(-1), x)), sum), bigMul(bf(2), bigPi))
}

// TestOracleMatchesMpmath checks the reference itself against 50-digit
// mpmath values of the defining integral and of erfc.
func TestOracleMatchesMpmath(t *testing.T) {
	for _, c := range []struct {
		h, a float64
		want string
	}{
		{0.5, 0.3, "0.04078670734425010602539996804396303463928"},
		{2, 0.9, "0.01092859882916245700479220398122004983229"},
		{8, 0.25, "2.97856028739173310156286834663318598204e-16"},
		{5, 1.2, "1.433257858229890988555816134485074901807e-7"},
		{8, 1.2, "3.11048028713589206175697579734018184624e-16"},
		{7, 2, "6.399062719429175021918118453904164990164e-13"},
		{8, 40, "3.110480287135892061757997586294094211244e-16"},
		{0.05, 40, "0.2399460619029931002700951786814365383091"},
		{3, 10, "0.0006749490158150472633259073837974886889147"},
	} {
		got := bigOwenT(bf(c.h), c.a)
		if rel := oracleRelErr(got, mustBig(c.want)); rel > 1e-30 {
			t.Errorf("reference T(%v, %v) = %s, mpmath %s (rel %.3g)", c.h, c.a, got.Text('g', 35), c.want, rel)
		}
	}
	for _, c := range []struct {
		h    float64
		want string
	}{
		{0.5, "0.3085375387259868963622953893916622601164"},
		{4.9, "4.791832765903189868054730948942620612809e-7"},
		{5, "2.866515718791939116737523328746453538544e-7"},
		{8, "6.220960574271784123515995172588188422489e-16"},
		{12, "1.776482112077678997696171001845557092393e-33"},
	} {
		if rel := oracleRelErr(bigQ(bf(c.h)), mustBig(c.want)); rel > 1e-30 {
			t.Errorf("reference Q(%v) off mpmath by %.3g", c.h, rel)
		}
	}
}

func oracleRelErr(got, want *big.Float) float64 {
	d, _ := bigQuo(bigSub(got, want), want).Float64()
	return math.Abs(d)
}

// TestOwenTTailOracle pins the kernel against the reference:
//
//   - |ΔT| ≤ 2e-16 absolute everywhere;
//   - |ΔT|/T ≤ 1e-12 wherever T ≥ 1e-300 (the old Φ-form reduction had
//     5.4e-10 at h = 5 and 7% at h = 8 for every a in [1.2, 40]);
//   - |ΔF| ≤ 1e-15 absolute for the SN CDF F(z; α) = Φ(z) − 2T(z, α),
//     checked with z = ±h and α = ±a.
func TestOwenTTailOracle(t *testing.T) {
	hs := []float64{0, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8}
	as := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.2, 1.5, 2, 3, 5, 10, 20, 40, math.Inf(1)}
	var worstAbs, worstRel, worstCDF float64
	for _, h := range hs {
		phiPos, phiNeg := bigPhi(h), bigPhi(-h)
		for _, a := range as {
			ref := bigOwenT(bf(h), a)
			want, _ := ref.Float64()
			for _, sa := range []float64{1, -1} {
				for _, sh := range []float64{1, -1} {
					got := OwenT(sh*h, sa*a)
					abs := math.Abs(got - sa*want)
					worstAbs = math.Max(worstAbs, abs)
					if abs > 2e-16 {
						t.Errorf("T(%v, %v) = %v, reference %v: absolute error %.3g", sh*h, sa*a, got, sa*want, abs)
					}
					if want >= 1e-300 {
						rel := abs / want
						worstRel = math.Max(worstRel, rel)
						if rel > 1e-12 {
							t.Errorf("T(%v, %v) = %v, reference %v: relative error %.3g", sh*h, sa*a, got, sa*want, rel)
						}
					}
					phi := phiPos
					if sh < 0 {
						phi = phiNeg
					}
					fRef, _ := bigSub(phi, bigMul(bf(2*sa), ref)).Float64()
					s := SkewNormal{Xi: 0, Omega: 1, Alpha: sa * a}
					cdfErr := math.Abs(s.CDF(sh*h) - fRef)
					worstCDF = math.Max(worstCDF, cdfErr)
					if cdfErr > 1e-15 {
						t.Errorf("SN CDF(z=%v; α=%v) = %v, reference %v: absolute error %.3g", sh*h, sa*a, s.CDF(sh*h), fRef, cdfErr)
					}
				}
			}
		}
	}
	t.Logf("worst T absolute %.3g, T relative %.3g, SN CDF absolute %.3g", worstAbs, worstRel, worstCDF)
}
