package cells_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/faultinject"
)

// testConfig keeps the MC volume small: 2 grid points per arc, few samples.
func testConfig() cells.CharConfig {
	return cells.CharConfig{Samples: 60, GridStride: 7}
}

// invArc is the first arc of the INV cell.
func invArc(t *testing.T) cells.Arc {
	t.Helper()
	c, ok := cells.CellByName("INV")
	if !ok {
		t.Fatal("cell INV missing from library")
	}
	return c.Arcs()[0]
}

func TestCharacterizeArcCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	dists, err := cells.CharacterizeArcCtx(ctx, testConfig(), invArc(t))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if len(dists) != 0 {
		t.Fatalf("characterised %d points past an expired deadline", len(dists))
	}
}

func TestCorruptingEvalInjectsNaNs(t *testing.T) {
	cfg := testConfig()
	cfg.Eval = faultinject.CorruptingEval(0.05, 99)
	dists, err := cells.CharacterizeArcCtx(context.Background(), cfg, invArc(t))
	if err != nil {
		t.Fatalf("CharacterizeArcCtx: %v", err)
	}
	sawNaN := false
	for _, d := range dists {
		if d.Kind != cells.Delay {
			continue
		}
		for _, x := range d.Samples {
			if x != x {
				sawNaN = true
			}
		}
	}
	if !sawNaN {
		t.Fatal("corrupting evaluator injected no NaNs")
	}
}
