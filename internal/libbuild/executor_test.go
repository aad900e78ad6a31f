package libbuild

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/mc"
	"lvf2/internal/obs"
	"lvf2/internal/spice"
)

// TestExecutePassMatchesBuild pins the single execution path: a serial
// Execute pass over Plan(cfg), which is one worker leasing every unit in
// turn, makes exactly as many LVF² fits as a fresh Build, because each
// fit leaves its own chain link and no neighbour is refitted. It also
// yields, unit for unit, the payloads Build journals.
func TestExecutePassMatchesBuild(t *testing.T) {
	fits := obs.NewHistogram(obs.Default(), "lvf2_fit_duration_seconds", "", nil)
	cfg := testConfig()
	j := openTestJournal(t, faultinject.NewMemFS(), cfg)
	cfg.Journal = j
	before := fits.Count()
	buildBytes(t, context.Background(), cfg)
	buildFits := fits.Count() - before

	refs, err := Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	before = fits.Count()
	for _, ref := range refs {
		payload, err := e.Execute(context.Background(), ref.Key)
		if err != nil {
			t.Fatalf("Execute(%s): %v", ref.Key, err)
		}
		if rec, ok := j.Lookup(ref.Key); !ok || rec.Status != checkpoint.StatusDone || !bytes.Equal(payload, rec.Payload) {
			t.Errorf("unit %s: Execute payload differs from the one Build journaled", ref.Key)
		}
	}
	if got := fits.Count() - before; got != buildFits {
		t.Errorf("serial Execute pass made %d LVF² fits, a fresh Build %d", got, buildFits)
	}
}

// TestExecutorRejectsUnitsOffThePlan: a leased key arrives over the
// network, so Execute and Salvage must refuse a unit the plan does not
// hold — another arc, a point off the swept grid, an unknown kind —
// rather than fit or salvage samples that do not exist.
func TestExecutorRejectsUnitsOffThePlan(t *testing.T) {
	e, err := NewExecutor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := checkpoint.Key{Cell: "INV", Pin: "A", Arc: "INV/arc00", Slew: 4, Load: 0, Kind: "Delay"}
	if _, _, err := e.Salvage(context.Background(), in); err != nil {
		t.Fatalf("Salvage(%s) of a planned unit: %v", in, err)
	}
	for _, k := range []checkpoint.Key{
		{Cell: "INV", Pin: "A", Arc: "INV/arc09", Kind: "Delay"},
		{Cell: "INV", Pin: "A", Arc: "INV/arc00", Slew: 2, Kind: "Delay"},
		{Cell: "INV", Pin: "A", Arc: "INV/arc00", Slew: 64, Kind: "Delay"},
		{Cell: "INV", Pin: "A", Arc: "INV/arc00", Kind: "Power"},
	} {
		if _, err := e.Execute(context.Background(), k); err == nil {
			t.Errorf("Execute(%s) accepted a unit outside the plan", k)
		}
		if _, _, err := e.Salvage(context.Background(), k); err == nil {
			t.Errorf("Salvage(%s) accepted a unit outside the plan", k)
		}
	}
}

// countingEval wraps the default evaluator and counts its calls per
// (arc, slew, load) grid point.
type countingEval struct {
	mu     sync.Mutex
	counts map[string]int
}

func pointName(arc string, slew, load float64) string { return fmt.Sprint(arc, "@", slew, ",", load) }

func (c *countingEval) eval(arc cells.Arc, corner spice.Corner, rng *mc.RNG, n int, slew, load float64, s spice.Sampler) spice.MCResult {
	c.mu.Lock()
	c.counts[pointName(arc.Label, slew, load)]++
	c.mu.Unlock()
	return cells.DefaultEval(arc, corner, rng, n, slew, load, s)
}

// TestBuildEvaluatesEachPointOnce: Build characterises an arc in one
// Monte-Carlo pass and never refits a chain neighbour, so a fresh build
// evaluates each (arc, grid point) exactly once at any worker count. A
// resumed build evaluates no point whose two units are both terminal,
// and every other point once.
func TestBuildEvaluatesEachPointOnce(t *testing.T) {
	grid := testConfig().Char.WithDefaults().Grid
	refs, err := Plan(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// check asserts want(ref) evaluations for the point of every Delay
	// unit (a pair's first) and none anywhere else.
	check := func(label string, ce *countingEval, want func(delay checkpoint.Key) int) {
		t.Helper()
		seen := 0
		for i := 0; i < len(refs); i += 2 {
			k := refs[i].Key
			name := pointName(k.Arc, grid.Slews[k.Slew], grid.Loads[k.Load])
			if got, w := ce.counts[name], want(k); got != w {
				t.Errorf("%s: point %s evaluated %d times, want %d", label, name, got, w)
			}
			seen += ce.counts[name]
		}
		total := 0
		for _, n := range ce.counts {
			total += n
		}
		if total != seen {
			t.Errorf("%s: %d evaluations outside the plan's points", label, total-seen)
		}
	}

	for _, workers := range []int{1, 4} {
		ce := &countingEval{counts: map[string]int{}}
		cfg := testConfig()
		cfg.Char.Workers = workers
		cfg.Char.Eval = ce.eval
		buildBytes(t, context.Background(), cfg)
		check(fmt.Sprintf("fresh, Workers=%d", workers), ce, func(checkpoint.Key) int { return 1 })
	}

	// Kill a journaled build mid-run, then resume it.
	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fits atomic.Int64
	cfg.fitHook = func(checkpoint.Key) {
		if fits.Add(1) == 11 {
			cancel()
		}
	}
	if _, _, err := Build(ctx, cfg); err == nil {
		t.Fatal("interrupted build should return the cancellation error")
	}
	j.Close()
	j2 := openTestJournal(t, fsys, cfg)
	resolved := func(delay checkpoint.Key) int {
		transition := delay
		transition.Kind = cells.Transition.String()
		if j2.Terminal(delay) && j2.Terminal(transition) {
			return 0
		}
		return 1
	}
	want := make(map[checkpoint.Key]int, len(refs)/2)
	skipped := 0
	for i := 0; i < len(refs); i += 2 {
		want[refs[i].Key] = resolved(refs[i].Key)
		skipped += 1 - want[refs[i].Key]
	}
	if skipped == 0 {
		t.Fatal("kill landed before any point resolved; cancel point too early for this test")
	}
	ce := &countingEval{counts: map[string]int{}}
	cfg2 := testConfig()
	cfg2.Journal = j2
	cfg2.Char.Eval = ce.eval
	buildBytes(t, context.Background(), cfg2)
	check("resumed", ce, func(k checkpoint.Key) int { return want[k] })
}
