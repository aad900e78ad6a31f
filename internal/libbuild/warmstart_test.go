package libbuild

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/core"
	"lvf2/internal/faultinject"
	"lvf2/internal/fit"
	"lvf2/internal/stats"
)

// TestBuildWarmStartStats: a default (warm) build seeds every non-anchor
// LVF² fit and reports the outcomes; a ColdStart build seeds nothing.
func TestBuildWarmStartStats(t *testing.T) {
	_, warm := buildBytes(t, context.Background(), testConfig())
	if warm.WarmHits == 0 {
		t.Errorf("warm build produced no warm-start hits: %+v", warm)
	}
	// testConfig is 4 arcs × 2×2 grid × 2 kinds = 32 units. Only each
	// arc-kind's first-row anchor must start cold (8 units); every other
	// unit — second-row anchors included, via the column-0 chain — may be
	// seeded, so at most 24 fits can report a warm outcome.
	if got := warm.WarmHits + warm.WarmRejected; got > 24 {
		t.Errorf("%d seeded outcomes, want <= 24 (first-row anchors can never be seeded)", got)
	}

	cold := testConfig()
	cold.ColdStart = true
	_, cstats := buildBytes(t, context.Background(), cold)
	if cstats.WarmHits != 0 || cstats.WarmRejected != 0 {
		t.Errorf("cold build reported warm outcomes: %+v", cstats)
	}
}

// TestBuildWarmDeterminismAcrossWorkers: the warm-started library must
// be bit-identical regardless of worker parallelism — the row-anchor
// scheme makes every seed a pure function of the journal-payload domain,
// never of scheduling. Run under -race -cpu 1,4,8 by the CI target.
func TestBuildWarmDeterminismAcrossWorkers(t *testing.T) {
	base := testConfig()
	base.Char.Workers = 1
	golden, gstats := buildBytes(t, context.Background(), base)
	if gstats.WarmHits == 0 {
		t.Fatalf("determinism test needs warm hits to be meaningful: %+v", gstats)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := testConfig()
		cfg.Char.Workers = workers
		out, stats := buildBytes(t, context.Background(), cfg)
		if !bytes.Equal(out, golden) {
			t.Errorf("Workers=%d library differs from Workers=1", workers)
		}
		if stats.WarmHits != gstats.WarmHits || stats.WarmRejected != gstats.WarmRejected {
			t.Errorf("Workers=%d warm stats (%d,%d) differ from Workers=1 (%d,%d)",
				workers, stats.WarmHits, stats.WarmRejected, gstats.WarmHits, gstats.WarmRejected)
		}
	}
}

// TestBuildPoisonAnchorColdRow poisons every Delay row anchor of one
// arc: the build must still complete with the anchors quarantined in
// the unchanged note format, and — because a quarantined anchor cannot
// seed — the rest of that arc's Delay rows must cold-start, while the
// arc's Transition units and every other arc keep warm-starting.
func TestBuildPoisonAnchorColdRow(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	cfg.fitErr = func(k checkpoint.Key) error {
		if k.Arc == "INV/arc00" && k.Kind == "Delay" && k.Load == 0 {
			return errors.New("injected poison anchor")
		}
		return nil
	}
	var logBuf bytes.Buffer
	cfg.Log = &logBuf

	out, stats := buildBytes(t, context.Background(), cfg)
	if stats.Quarantined != 2 { // two rows → two poisoned Delay anchors
		t.Errorf("stats.Quarantined = %d, want 2", stats.Quarantined)
	}
	text := string(out)
	if !strings.Contains(text, "ocv_fallback_note") {
		t.Error("quarantined build emitted no ocv_fallback_note attribute")
	}
	if !strings.Contains(text, checkpoint.QuarantineNote("injected poison anchor")+" [") {
		t.Error("quarantine note format changed")
	}

	// Inspect per-unit provenance straight from the journal payloads.
	warmOf := func(k checkpoint.Key) fit.WarmOutcome {
		rec, ok := j.Lookup(k)
		if !ok || rec.Payload == nil {
			t.Fatalf("unit %s not journaled with a payload", k)
		}
		_, _, _, warm, err := decodeUnit(rec.Payload)
		if err != nil {
			t.Fatalf("unit %s payload: %v", k, err)
		}
		return warm
	}
	for _, si := range []int{0, 4} {
		// The poisoned arc's non-anchor Delay units must have cold-started.
		k := checkpoint.Key{Cell: "INV", Pin: "A", Arc: "INV/arc00", Slew: si, Load: 4, Kind: "Delay"}
		if got := warmOf(k); got != fit.WarmCold {
			t.Errorf("unit %s after poisoned anchor: warm outcome %v, want cold", k, got)
		}
		// Its Transition siblings have healthy anchors and must be seeded.
		k.Kind = "Transition"
		if got := warmOf(k); got == fit.WarmCold {
			t.Errorf("unit %s with healthy anchor: warm outcome cold, want seeded", k)
		}
	}
	if stats.WarmHits == 0 {
		t.Errorf("unpoisoned arcs produced no warm hits: %+v", stats)
	}

	// Resume after the poisoned run: bit-identical, nothing refitted —
	// warm provenance restores from the journal like every other payload.
	j.Close()
	j2 := openTestJournal(t, fsys, cfg)
	cfg2 := testConfig()
	cfg2.Journal = j2
	cfg2.fitErr = cfg.fitErr
	cfg2.fitHook = func(k checkpoint.Key) { t.Errorf("unit %s refitted after full run", k) }
	resumed, _ := buildBytes(t, context.Background(), cfg2)
	if !bytes.Equal(resumed, out) {
		t.Error("resumed poisoned-anchor library differs")
	}
}

// TestWarmColdAccuracyGolden is the accuracy gate of the warm-start
// scheme on real characterised samples: for every non-anchor grid entry
// of an arc, the seeded fit's CDF must stay within tolerance of the cold
// fit's over the distribution's bulk.
func TestWarmColdAccuracyGolden(t *testing.T) {
	inv, _ := cells.CellByName("INV")
	arc := inv.Arcs()[0]
	charCfg := cells.CharConfig{Samples: 2000, Seed: 7, GridStride: 2}
	dists := cells.CharacterizeArc(charCfg, arc)

	byPoint := make(map[[2]int][]float64)
	for _, d := range dists {
		if d.Kind == cells.Delay {
			byPoint[[2]int{d.SlewIdx, d.LoadIdx}] = d.Samples
		}
	}

	const tol = 0.02
	checked := 0
	for _, p := range charCfg.SweepPoints() {
		if p.Col == 0 {
			continue
		}
		anchor := byPoint[[2]int{p.SlewIdx, 0}]
		xs := byPoint[[2]int{p.SlewIdx, p.LoadIdx}]
		coldAnchor, err := fit.FitLVF2(anchor, fit.Options{})
		if err != nil {
			t.Fatalf("anchor (%d,0): %v", p.SlewIdx, err)
		}
		coldHere, err := fit.FitLVF2(xs, fit.Options{})
		if err != nil {
			t.Fatalf("cold (%d,%d): %v", p.SlewIdx, p.LoadIdx, err)
		}
		warmHere, _, err := fit.FitLVF2Seeded(xs, fit.SeedOf(coldAnchor), fit.Options{})
		if err != nil {
			t.Fatalf("warm (%d,%d): %v", p.SlewIdx, p.LoadIdx, err)
		}
		if rmse := timingCDFRMSE(t, warmHere.Dist(), coldHere.Dist(), xs); rmse > tol {
			t.Errorf("(%d,%d): warm-vs-cold CDF RMSE %.4f > %.2f", p.SlewIdx, p.LoadIdx, rmse, tol)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no non-anchor points checked")
	}
}

// timingCDFRMSE evaluates the CDF gap over the sample's own range.
func timingCDFRMSE(t *testing.T, a, b stats.Dist, xs []float64) float64 {
	t.Helper()
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	const pts = 201
	var sum float64
	for i := 0; i < pts; i++ {
		x := lo + (hi-lo)*float64(i)/(pts-1)
		d := a.CDF(x) - b.CDF(x)
		sum += d * d
	}
	return math.Sqrt(sum / pts)
}

// TestFingerprintSeparatesWarmAndCold: a journal written in one start
// mode must not resume in the other — the payload streams differ.
func TestFingerprintSeparatesWarmAndCold(t *testing.T) {
	warm := testConfig()
	cold := testConfig()
	cold.ColdStart = true
	if warm.Fingerprint() == cold.Fingerprint() {
		t.Fatal("warm and cold configurations share a fingerprint")
	}

	fsys := faultinject.NewMemFS()
	j := openTestJournal(t, fsys, warm)
	warm.Journal = j
	buildBytes(t, context.Background(), warm)
	j.Close()
	if _, err := checkpoint.Open(fsys, "ckpt", cold.Fingerprint(), checkpoint.Options{}); !errors.Is(err, checkpoint.ErrFingerprintMismatch) {
		t.Fatalf("cold Open over warm journal = %v, want ErrFingerprintMismatch", err)
	}
}

// TestSeedFromModelUsesPayloadBits: the seed is a pure function of the
// decoded payload floats, so two decodes of the same payload (original
// run and resume) derive identical seeds.
func TestSeedFromModelUsesPayloadBits(t *testing.T) {
	m := core.Model{Lambda: 0.31,
		Theta1: core.Theta{Mean: 1.27e-2, Sigma: 3.1e-4, Skew: -0.42},
		Theta2: core.Theta{Mean: 1.81e-2, Sigma: 8.7e-4, Skew: 0.95}}
	payload := encodeUnit(1, m, "", fit.WarmCold)
	_, m1, _, _, err1 := decodeUnit(payload)
	_, m2, _, _, err2 := decodeUnit(append([]byte{}, payload...))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	s1, s2 := seedFromModel(m1), seedFromModel(m2)
	if *s1 != *s2 {
		t.Errorf("seeds from identical payloads differ: %+v vs %+v", s1, s2)
	}
}
