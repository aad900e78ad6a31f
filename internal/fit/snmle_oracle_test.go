//go:build !race

package fit

import (
	"fmt"
	"testing"

	"lvf2/internal/cells"
)

// TestWeightedSNMLECharlibOracle checks the Newton M-step against the
// simplex reference on real characterised distributions: every delay and
// transition distribution of the INV and NAND2 arcs at the library
// benchmark's settings (1500 samples, seed 42, grid stride 2), weighted by
// the E-step responsibilities of a cold FitLVF2, each component started
// from its fit, its α mirror and α = 0. (Pure numerics on one goroutine:
// skipped under -race, which would only slow it tenfold.)
func TestWeightedSNMLECharlibOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises 128 distributions")
	}
	cfg := cells.CharConfig{Samples: 1500, Seed: 42, GridStride: 2}
	var cases []mstepCase
	for _, name := range []string{"INV", "NAND2"} {
		ct, _ := cells.CellByName(name)
		for _, arc := range ct.Arcs()[:2] {
			for _, dist := range cells.CharacterizeArc(cfg, arc) {
				xs := dist.Samples
				r, err := FitLVF2(xs, Options{})
				if err != nil {
					t.Fatal(err)
				}
				t1 := makeSNTerm(1-r.Lambda, r.C1)
				t2 := makeSNTerm(r.Lambda, r.C2)
				w1 := make([]float64, len(xs))
				w2 := make([]float64, len(xs))
				for i, x := range xs {
					p1, p2 := t1.pdf(x), t2.pdf(x)
					tot := p1 + p2
					if tot < 1e-300 {
						tot, p2 = 1e-300, 0
					}
					w2[i] = p2 / tot
					w1[i] = 1 - w2[i]
				}
				label := fmt.Sprintf("%s/%d/%d/%s", arc.Label, dist.SlewIdx, dist.LoadIdx, dist.Kind)
				cases = append(cases, withStarts(label+"/c1", xs, w1, r.C1)...)
				cases = append(cases, withStarts(label+"/c2", xs, w2, r.C2)...)
			}
		}
	}
	checkMStepOracle(t, cases)
}
