package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/fit"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
	"lvf2/internal/obs"
)

// fitCounters reads the process-wide fit series the library exposes in
// obs.Default(): the LVF² fit-duration histogram and the warm-start
// outcome counters.
type fitCounters struct {
	sum                 float64
	count               int64
	hit, rejected, cold int64
}

var (
	fitDuration = obs.NewHistogram(obs.Default(), "lvf2_fit_duration_seconds", "", nil)
	fitWarm     = obs.NewCounterVec(obs.Default(), "lvf2_fit_warmstart_total", "", "outcome")
)

func readFitCounters() fitCounters {
	return fitCounters{
		sum: fitDuration.Sum(), count: fitDuration.Count(),
		hit:      fitWarm.Value(fit.WarmHit.String()),
		rejected: fitWarm.Value(fit.WarmRejected.String()),
		cold:     fitWarm.Value(fit.WarmCold.String()),
	}
}

// charBuild is one timed build + emit.
type charBuild struct {
	opMS, buildS, writeS, parseS float64
	stats                        libbuild.Stats
	text                         []byte
	sum                          string
}

// openJournal plans the build and opens a fresh journal in its own
// directory: the charlib set-up.
func openJournal(fsys checkpoint.FS, cfg libbuild.Config, dir string) (*checkpoint.Journal, error) {
	if _, err := libbuild.Plan(cfg); err != nil {
		return nil, err
	}
	return checkpoint.Open(fsys, dir, cfg.Fingerprint(), checkpoint.Options{})
}

func runCharlib(e *env) (*outcome, error) {
	ctx := context.Background()
	cfg, err := charlibConfig()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	fsys := &timingFS{tr: tr}
	out := newOutcome()
	seq := 0
	nextDir := func() string {
		seq++
		return filepath.Join(e.dir, fmt.Sprintf("journal-%d", seq))
	}

	// Set-up: plan the build and open its fresh journal, then build and
	// emit one arc (INV) at the same settings without a journal, so
	// one-time initialisation is done before the timed builds and shows
	// here. Planning and opening alone take 0.1-0.2 ms, and that figure
	// varied by a third between runs.
	warm := cfg
	warm.Types, warm.ArcsPer = cfg.Types[:1], 1
	var setups []float64
	for i := 0; i < 3; i++ {
		dir := nextDir()
		t0 := time.Now()
		j, err := openJournal(fsys, cfg, dir)
		if err != nil {
			return nil, err
		}
		g, _, err := libbuild.Build(ctx, warm)
		if err == nil {
			_, err = emitLibrary(g)
		}
		setups = append(setups, secondsSince(t0))
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	out.e2e["setup_s"] = median(setups)

	// phase runs builds back to back until the time budget is spent
	// (always at least one) and returns the end-to-end figures.
	phase := func(traced bool) (map[string]float64, []charBuild, error) {
		var builds []charBuild
		attempted, failed := 0, 0
		fail := func(format string, args ...any) {
			failed++
			out.problem(format, args...)
		}
		heap := watchHeap()
		deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
		for len(builds) == 0 || time.Now().Before(deadline) {
			dir := nextDir()
			j, err := openJournal(fsys, cfg, dir)
			if err != nil {
				return nil, nil, err
			}
			bcfg := cfg
			bcfg.Journal = j
			tr.on.Store(traced)
			id, t0 := tr.begin()
			g, st, berr := libbuild.Build(ctx, bcfg)
			tb := time.Now()
			var text []byte
			if berr == nil {
				text, berr = emitLibrary(g)
			}
			tw := time.Now()
			if traced {
				tr.record(id, 0, "libbuild.Build", "charlib", t0, tb.Sub(t0))
				tr.record(id, 0, "liberty.WriteLibrary", "charlib", tb, tw.Sub(tb))
			}
			tr.end(id, 0, 0, "charlib.build", "charlib", t0)
			tr.on.Store(false)
			if err := j.Close(); err != nil {
				out.problem("close journal: %v", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			b := charBuild{opMS: ms(tw.Sub(t0)), buildS: tb.Sub(t0).Seconds(), writeS: tw.Sub(tb).Seconds(), stats: st, text: text}
			attempted++
			if berr != nil {
				fail("build: %v", berr)
				builds = append(builds, b)
				continue
			}
			b.sum = sha(text)
			tp := time.Now()
			_, perr := parseLibrary(text)
			b.parseS = secondsSince(tp)
			switch {
			case perr != nil:
				fail("emitted .lib does not re-parse: %v", perr)
			case st.Quarantined != 0:
				fail("build quarantined %d units", st.Quarantined)
			case len(builds) > 0 && builds[0].sum != "" && b.sum != builds[0].sum:
				fail("build is not deterministic: sha256 %s then %s", builds[0].sum, b.sum)
			}
			builds = append(builds, b)
		}
		peak := heap.peakMiB()
		out.attempted += attempted
		out.failed += failed
		var ops []float64
		for _, b := range builds {
			ops = append(ops, b.opMS)
		}
		m := map[string]float64{
			"heap_peak_mb":     peak,
			"ok_ratio":         1 - float64(failed)/float64(attempted),
			"throughput_per_s": float64(len(cfg.Types)) / (mean(ops) / 1000),
			"p50_ms":           median(ops),
			"tail_ms":          tailOf(ops),
		}
		return m, builds, nil
	}

	untraced, builds, err := phase(false)
	if err != nil {
		return nil, err
	}
	for k, v := range untraced {
		out.e2e[k] = v
	}
	out.reportf("builds: %d, build+emit ms: %v", len(builds), opList(builds))
	out.reportf("library sha256: %s (%d bytes)", builds[0].sum, len(builds[0].text))
	out.e2e["cells_per_s"] = untraced["throughput_per_s"]
	out.e2e["fail_ratio"] = 1 - untraced["ok_ratio"]
	if !e.trace {
		return out, nil
	}

	fc0 := readFitCounters()
	rt0 := readRuntime()
	traced, tbuilds, err := phase(true)
	if err != nil {
		return nil, err
	}
	fc1 := readFitCounters()
	rt1 := readRuntime()
	overhead(out, untraced, traced)
	n := float64(len(tbuilds))
	recordRuntime(out, rt0, rt1, len(tbuilds))
	var buildS, writeS, parseS, libBytes float64
	for _, b := range tbuilds {
		buildS += b.buildS
		writeS += b.writeS
		parseS += b.parseS
		libBytes += float64(len(b.text))
	}
	st := tbuilds[len(tbuilds)-1].stats
	l := out.layer
	l["libbuild.build_s"] = buildS / n
	l["libbuild.units"] = float64(st.Units)
	l["libbuild.fallbacks"] = float64(st.Fallbacks)
	l["libbuild.quarantined"] = float64(st.Quarantined)
	l["liberty.write_s"] = writeS / n
	l["liberty.bytes"] = libBytes / n
	l["liberty.parse_s"] = parseS / n
	l["fit.fit_s"] = (fc1.sum - fc0.sum) / n
	l["fit.fits"] = float64(fc1.count-fc0.count) / n
	hit, rej := float64(fc1.hit-fc0.hit)/n, float64(fc1.rejected-fc0.rejected)/n
	l["fit.warm_hit"], l["fit.warm_rejected"] = hit, rej
	l["fit.cold"] = float64(fc1.cold-fc0.cold) / n
	if hit+rej > 0 {
		l["fit.warm_hit_ratio"] = hit / (hit + rej)
	}
	l["checkpoint.io_s"] = float64(fsys.ns.Load()) / 1e9 / n
	l["checkpoint.bytes"] = float64(fsys.bytes.Load()) / n
	l["checkpoint.syncs"] = float64(fsys.syncs.Load()) / n
	out.reportf("warm-start: %.0f hits, %.0f rejected (libbuild.Stats: %d hits, %d rejected)", hit, rej, st.WarmHits, st.WarmRejected)

	if err := replayCharacterisation(ctx, cfg, tbuilds[0].text, tr, out); err != nil {
		return nil, err
	}
	saveTrace(e, tr, out)
	return out, nil
}

// replayCharacterisation re-runs cells.CharacterizeArcCtx for every arc
// of the build with the build's CharConfig, timing the Monte-Carlo layer
// alone. Fidelity: every replayed nominal must equal the nominal the
// emitted library carries for that grid point (the .lib holds 8
// significant digits, so they are compared in that form).
func replayCharacterisation(ctx context.Context, cfg libbuild.Config, text []byte, tr *tracer, out *outcome) error {
	lib, err := parseLibrary(text)
	if err != nil {
		return err
	}
	refs, err := libbuild.Plan(cfg)
	if err != nil {
		return err
	}
	char := cfg.Char.WithDefaults()
	type arcID struct{ cell, pin, label string }
	seen := map[arcID]bool{}
	ordinal := map[string]int{} // arcs seen per cell: the index of its timing group
	var total time.Duration
	var samples, checked int
	tr.on.Store(true)
	defer tr.on.Store(false)
	for _, ref := range refs {
		id := arcID{ref.Key.Cell, ref.Key.Pin, ref.Key.Arc}
		if seen[id] {
			continue
		}
		seen[id] = true
		ord := ordinal[ref.Key.Cell]
		ordinal[ref.Key.Cell]++
		sid, t0 := tr.begin()
		dists, err := cells.CharacterizeArcCtx(ctx, char, ref.Arc)
		d := time.Since(t0)
		tr.end(sid, 0, 0, "replay.cells.CharacterizeArcCtx", ref.Arc.Label, t0)
		if err != nil {
			return err
		}
		total += d
		for _, dist := range dists {
			samples += len(dist.Samples)
			if !nominalMatches(lib, ref.Key.Cell, ref.Key.Pin, ord, dist, char.GridStride) {
				out.problem("replay fidelity: %s/%s %s (%d,%d) nominal %g differs from the emitted library",
					ref.Key.Cell, ref.Key.Pin, dist.Kind, dist.SlewIdx, dist.LoadIdx, dist.NomDelay)
			}
			checked++
		}
	}
	out.layer["cells.char_s"] = total.Seconds()
	out.layer["cells.samples"] = float64(samples)
	out.reportf("cells replay: %d arcs, %d distributions checked against the emitted nominal tables", len(seen), checked)
	return nil
}

// nominalMatches compares a replayed nominal with the ord-th timing
// group of the cell (libbuild emits a cell's arcs in plan order).
func nominalMatches(lib *liberty.Library, cell, pin string, ord int, d cells.Distribution, stride int) bool {
	c, ok := lib.Cells[cell]
	if !ok {
		return false
	}
	out, ok := c.Pins["ZN"]
	if !ok || ord >= len(out.Timings) || out.Timings[ord].RelatedPin != pin {
		return false
	}
	arc := out.Timings[ord]
	base := "cell_rise"
	if d.Kind == cells.Transition {
		base = "rise_transition"
	}
	tm, ok := arc.Tables[base]
	if !ok {
		return false
	}
	i, j := d.SlewIdx/stride, d.LoadIdx/stride
	if i >= len(tm.Nominal.Values) || j >= len(tm.Nominal.Values[i]) {
		return false
	}
	return strconv.FormatFloat(d.NomDelay, 'g', 8, 64) == strconv.FormatFloat(tm.Nominal.Values[i][j], 'g', 8, 64)
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func opList(builds []charBuild) []string {
	var s []string
	for _, b := range builds {
		s = append(s, strconv.FormatFloat(b.opMS, 'f', 1, 64))
	}
	return s
}
