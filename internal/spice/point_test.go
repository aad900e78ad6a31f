package spice

import (
	"math"
	"math/rand"
	"testing"
)

// referenceEval is the single-shot Eval as it stood before Point
// existed, kept verbatim as the oracle the prepared point must match bit
// for bit.
func referenceEval(e CellElectrical, c Corner, p Params, slewNS, loadPF float64) (delay, trans float64) {
	vthA0, sensA := stackVth(c.VthN0, e.StackN)
	vthA := vthA0 + c.SigmaVth*sensA*p.VthN
	mobA := (1 + c.SigmaMob*p.MobN) / (1 + c.SigmaLen*p.Len)
	dA := mechanismDelay(c, e.Drive, mobA, vthA, loadPF)

	vthB0, sensB := stackVth(c.VthP0, e.StackP)
	vthB := vthB0 + c.SigmaVth*sensB*p.VthP
	mobB := (1 + c.SigmaMob*p.MobP) / (1 + c.SigmaLen*p.Len)
	dB := mechanismDelay(c, e.Drive*0.92, mobB, vthB, loadPF) * (1 + e.ModeGap)

	slopeA := slewNS * (kSlewDelay + 0.28*vthA/c.VDD)
	slopeB := slewNS * (kSlewDelay + 0.28*vthB/c.VDD)

	bias := e.MixSens * (math.Log10(slewNS/0.03) - math.Log10(loadPF/0.02) + e.DiagOffset)
	m := (p.VthN-p.VthP)/sqrt2 + bias
	s := 1 / (1 + math.Exp(-m/modeKappa))

	dTotA := dA + slopeA
	dTotB := dB + slopeB
	delay = (1-s)*dTotA + s*dTotB
	delay *= 1 + envGainD*p.Env

	tA := kTransMult*dA + slewNS*kSlewTrans
	tB := kTransMult*dB*(1+e.TransGain*e.ModeGap) + slewNS*kSlewTrans
	trans = (1-s)*tA + s*tB
	trans *= 1 + envGainT*p.Env
	return delay, trans
}

// TestPointEvalMatchesReference: At(...).Eval and Eval reproduce the
// reference bit for bit over random cells, grid points and process
// vectors — moderate ones, ones out to |x| = 9, and ones that drive the
// effective overdrive into the minVeff clamp.
func TestPointEvalMatchesReference(t *testing.T) {
	c := TTCorner()
	r := rand.New(rand.NewSource(0x5eed))
	clamped := 0
	for trial := 0; trial < 400; trial++ {
		e := CellElectrical{
			Drive: 0.5 + 3*r.Float64(), CapIn: 0.001,
			StackN: 1 + r.Intn(4), StackP: 1 + r.Intn(4),
			ModeGap: 0.4 * r.Float64(), MixSens: 1.5 + r.Float64(),
			DiagOffset: 4 * (r.Float64() - 0.5), TransGain: 1 + r.Float64(),
		}
		slew := 0.001 + r.Float64()
		load := 0.0002 + r.Float64()
		pt := e.At(c, slew, load)
		for k := 0; k < 50; k++ {
			span := [...]float64{1, 3, 9}[k%3]
			v := make([]float64, NumParams)
			for j := range v {
				v[j] = span * (2*r.Float64() - 1)
			}
			if k%10 == 0 {
				// Far along the slow-threshold axes: the overdrive clamps.
				v[0], v[1] = 9, 9
			}
			p := ParamsFromVector(v)
			vthA0, sensA := stackVth(c.VthN0, e.StackN)
			if c.VDD-(vthA0+c.SigmaVth*sensA*p.VthN) < minVeff {
				clamped++
			}
			wantD, wantT := referenceEval(e, c, p, slew, load)
			gotD, gotT := pt.Eval(p)
			oneD, oneT := e.Eval(c, p, slew, load)
			for _, got := range [][2]float64{{gotD, gotT}, {oneD, oneT}} {
				if math.Float64bits(got[0]) != math.Float64bits(wantD) || math.Float64bits(got[1]) != math.Float64bits(wantT) {
					t.Fatalf("cell %+v slew %g load %g p %+v: got (%v, %v), reference (%v, %v)",
						e, slew, load, p, got[0], got[1], wantD, wantT)
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no sample reached the minVeff clamp")
	}
}
