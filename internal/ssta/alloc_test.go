//go:build !race

package ssta

import (
	"testing"

	"lvf2/internal/stats"
)

var allocSink stats.SampleMoments

// TestMaxMomentsAllocBudget requires MaxMoments to allocate nothing: its
// 193-node density table must stay on the stack. (Skipped under -race,
// which inflates allocation counts.)
func TestMaxMomentsAllocBudget(t *testing.T) {
	var a, b stats.Dist = stats.SNFromMoments(0.10, 0.005, 0.4), stats.SNFromMoments(0.13, 0.004, -0.3)
	if avg := testing.AllocsPerRun(20, func() { allocSink = MaxMoments(a, b) }); avg != 0 {
		t.Fatalf("MaxMoments allocates %.1f times per call, budget 0", avg)
	}
}
