//go:build !race

package stats

import "testing"

var allocSink float64

// TestSkewNormalCDFAllocBudget and TestQuantileAllocBudget require the
// CDF kernel and the quantile solve to allocate nothing. (Skipped under
// -race, which inflates allocation counts.)
func TestSkewNormalCDFAllocBudget(t *testing.T) {
	s := SNFromMoments(0.1, 0.01, 0.5)
	if avg := testing.AllocsPerRun(100, func() { allocSink = s.CDF(0.097) }); avg != 0 {
		t.Fatalf("SkewNormal.CDF allocates %.1f times per call, budget 0", avg)
	}
}

func TestQuantileAllocBudget(t *testing.T) {
	var d Dist = quantileCases()["mix/lambda=0.3/sep=8"]
	if avg := testing.AllocsPerRun(100, func() { allocSink = Quantile(d, 0.3) }); avg != 0 {
		t.Fatalf("Quantile allocates %.1f times per call, budget 0", avg)
	}
}
