// Package libbuild is the characterise → fit → emit engine behind the
// libgen CLI: it builds the Liberty library for a set of cell types,
// one journaled work unit per (arc, slew, load, kind) fit. Extracting
// it from the CLI lets the checkpoint tests drive the real emission
// path in-process — kill a build mid-run, reopen the journal, and
// assert the resumed library is bit-identical to an uninterrupted one.
//
// Work units go through checkpoint.Runner: a unit already journaled as
// done or quarantined is restored (never refitted — its payload holds
// the fitted model parameters bit-exactly), a failing unit is retried
// with jittered backoff, and a poison unit is quarantined with a
// degraded emission from the fit.FitRobust ladder so one bad arc never
// blocks the other 24 cell types. Monte-Carlo evaluation is shared per
// grid point and skipped entirely when both of the point's units are
// already resolved.
package libbuild

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/core"
	"lvf2/internal/fit"
	"lvf2/internal/liberty"
	"lvf2/internal/pool"
)

// TemplateName is the lu_table_template of the emitted library.
const TemplateName = "delay_template_8x8"

// LibraryName is the emitted library's name attribute.
const LibraryName = "lvf2_synth22"

// Config controls one library build.
type Config struct {
	// Types are the cell types to characterise (required).
	Types []cells.CellType
	// ArcsPer is the requested arcs per cell type. Every input pin needs
	// at least one timing arc or downstream STA paths would silently
	// truncate, so the effective count is max(ArcsPer, input pins).
	ArcsPer int
	// Char configures the Monte-Carlo characterisation (samples, seed,
	// grid stride, corner). Its Skip field is owned by the build.
	Char cells.CharConfig
	// LVF2 selects the paper's LVF² attribute set; false emits classic
	// LVF only.
	LVF2 bool
	// ColdStart disables warm-start seeding: every LVF² fit runs the full
	// exploratory multi-start. Warm and cold libraries agree to the
	// accuracy tolerance (the warm gate enforces it) but are not
	// byte-identical; the determinism guarantee — same bytes across
	// Workers counts, resume and distribution — holds separately within
	// each mode. This knob exists for the cells/sec baseline benchmark
	// and for bisecting fit regressions.
	ColdStart bool
	// Journal, when non-nil, makes the build resumable: every unit
	// outcome is journaled and terminal units are restored on the next
	// run instead of recomputed.
	Journal *checkpoint.Journal
	// Retry tunes the per-unit retry/backoff/quarantine policy.
	Retry checkpoint.RetryPolicy
	// Log receives fallback and quarantine notes (default: discarded).
	Log io.Writer

	// Test seams: fitHook observes every fresh (non-restored) fit attempt
	// before it runs; fitErr injects a unit fault. Both see the unit key.
	fitHook func(checkpoint.Key)
	fitErr  func(checkpoint.Key) error
}

// Fingerprint canonicalises the configuration fields that must match
// for journaled results to be bit-identical to recomputation.
func (c Config) Fingerprint() checkpoint.Fingerprint {
	ch := c.Char.WithDefaults()
	names := make([]string, len(c.Types))
	for i, t := range c.Types {
		names[i] = t.Name
	}
	format := "lvf"
	if c.LVF2 {
		format = "lvf2"
	}
	// warm-nn names the nearest-left-neighbour seeding scheme; journals
	// written by the older row-anchor scheme ("warm") fit different
	// payload bits mid-row and must not resume under this one.
	start := "warm-nn"
	if c.ColdStart {
		start = "cold"
	}
	return checkpoint.Fingerprint{
		Library:    fmt.Sprintf("%s/%s/arcs=%d", LibraryName, strings.Join(names, ","), c.ArcsPer),
		Seed:       ch.Seed,
		Samples:    ch.Samples,
		GridStride: ch.GridStride,
		// start matters because warm and cold payloads differ: a journal
		// written in one mode must not be resumed in the other.
		Options: fmt.Sprintf("format=%s,start=%s", format, start),
	}
}

// Stats summarises a build for logs and the resume-skip-ratio gauge.
type Stats struct {
	Units       int // work units resolved (2 per visited grid point)
	Restored    int // units restored from the journal, not recomputed
	Quarantined int // units emitted by a quarantine salvage rung
	Fallbacks   int // units carrying a fallback/quarantine note
	// Warm-start outcomes of the fresh (non-restored) fits: a hit skipped
	// the exploratory multi-start, a rejection paid one gate check on top
	// of the cold fit it fell back to. Fresh fits minus the two are
	// unseeded cold fits (first-row anchors, units downstream of a broken
	// seed chain, non-LVF² rungs, ColdStart builds).
	WarmHits     int
	WarmRejected int
}

// arcJob is one arc's slot in deterministic library order.
type arcJob struct {
	typeIdx int
	arc     cells.Arc
	pin     string // related input pin (checkpoint key + Liberty related_pin)
}

// arcTables is the per-arc build product, assembled after the pool so
// the emitted library is independent of worker scheduling.
type arcTables struct {
	delay, trans *liberty.TimingModel
	stats        Stats
}

// planJobs enumerates the arcs of a build in deterministic library
// order, together with each cell type's input pin names. Build and the
// distributed plan/executor share it so every process agrees on the
// unit universe.
func planJobs(cfg Config) (jobs []arcJob, pinsOf [][]string) {
	pinsOf = make([][]string, len(cfg.Types))
	for ti, ct := range cfg.Types {
		pins := InputPins(ct.Inputs)
		pinsOf[ti] = pins
		arcList := ct.Arcs()
		want := cfg.ArcsPer
		if want < len(pins) {
			want = len(pins)
		}
		if want > 0 && len(arcList) > want {
			arcList = arcList[:want]
		}
		for _, arc := range arcList {
			jobs = append(jobs, arcJob{typeIdx: ti, arc: arc, pin: pins[arc.Index%len(pins)]})
		}
	}
	return jobs, pinsOf
}

// Build characterises cfg.Types and returns the Liberty library group,
// ready for liberty.WriteLibrary. On error (including cancellation) the
// journal still holds every unit sealed so far, so a rerun against the
// same journal resumes instead of restarting.
func Build(ctx context.Context, cfg Config) (*liberty.Group, Stats, error) {
	cfg.Char = cfg.Char.WithDefaults()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if len(cfg.Types) == 0 {
		return nil, Stats{}, errors.New("libbuild: no cell types")
	}
	// Seal whatever the run produced even on the error paths: resumability
	// of a failed run is the whole point of the journal.
	defer cfg.Journal.Flush()

	jobs, pinsOf := planJobs(cfg)
	results := make([]arcTables, len(jobs))
	labels := make([]string, len(jobs))
	for i, j := range jobs {
		labels[i] = j.arc.Label
	}
	runner := &checkpoint.Runner{Journal: cfg.Journal, Policy: cfg.Retry}
	err := pool.ForEachLabeled(ctx, pool.Options{Workers: cfg.Char.Workers, TaskTimeout: cfg.Char.ArcTimeout}, labels,
		func(tctx context.Context, i int) error {
			t, berr := buildArc(tctx, cfg, runner, jobs[i].arc, jobs[i].pin)
			if berr != nil {
				return berr
			}
			results[i] = t
			return nil
		})

	var stats Stats
	for _, r := range results {
		stats.Units += r.stats.Units
		stats.Restored += r.stats.Restored
		stats.Quarantined += r.stats.Quarantined
		stats.Fallbacks += r.stats.Fallbacks
		stats.WarmHits += r.stats.WarmHits
		stats.WarmRejected += r.stats.WarmRejected
	}
	cfg.Journal.SetResumeSkipRatio(stats.Restored, stats.Units)
	if err != nil {
		return nil, stats, err
	}

	lib := liberty.NewLibrary(liberty.LibraryHeaderOptions{
		Name:        LibraryName,
		Voltage:     cfg.Char.Corner.VDD,
		TempC:       cfg.Char.Corner.TempC,
		ProcessName: "synthetic22-TTGlobal_LocalMC",
	}, TemplateName, cfg.Char.Grid.Slews, cfg.Char.Grid.Loads)
	job := 0
	for ti, ct := range cfg.Types {
		outPin := liberty.AddCell(lib, ct.Name, pinsOf[ti], ct.Base.CapIn, "ZN", "")
		for ; job < len(jobs) && jobs[job].typeIdx == ti; job++ {
			timing := liberty.AddTiming(outPin, jobs[job].pin, "positive_unate")
			results[job].delay.AppendTo(timing, TemplateName, cfg.LVF2)
			results[job].trans.AppendTo(timing, TemplateName, cfg.LVF2)
		}
	}
	return lib, stats, nil
}

type distKey struct {
	si, li int
	kind   cells.Kind
}

// buildArc resolves one arc's units and assembles its delay/transition
// timing models. Notes are accumulated in grid order (the order the
// sequential pipeline produced them), so a resumed build emits the
// same ocv_fallback_note_* strings as an uninterrupted one.
func buildArc(ctx context.Context, cfg Config, runner *checkpoint.Runner, arc cells.Arc, pin string) (arcTables, error) {
	grid := cfg.Char.Grid
	stride := cfg.Char.GridStride
	var idx1, idx2 []float64
	for i := 0; i < len(grid.Slews); i += stride {
		idx1 = append(idx1, grid.Slews[i])
	}
	for j := 0; j < len(grid.Loads); j += stride {
		idx2 = append(idx2, grid.Loads[j])
	}
	points := cfg.Char.SweepPoints()

	key := func(p cells.GridPoint, kind cells.Kind) checkpoint.Key {
		return checkpoint.Key{Cell: arc.Cell, Pin: pin, Arc: arc.Label,
			Slew: p.SlewIdx, Load: p.LoadIdx, Kind: kind.String()}
	}
	// MC evaluation is shared by a point's two units: skip it only when
	// BOTH are terminal (a point with one unit still pending recomputes
	// its samples — cheap relative to losing the resume guarantee).
	skip := make(map[[2]int]bool, len(points))
	for _, p := range points {
		skip[[2]int{p.SlewIdx, p.LoadIdx}] = runner.Journal.Terminal(key(p, cells.Delay)) &&
			runner.Journal.Terminal(key(p, cells.Transition))
	}
	charCfg := cfg.Char
	charCfg.Skip = func(_ cells.Arc, si, li int) bool { return skip[[2]int{si, li}] }
	dists, err := cells.CharacterizeArcCtx(ctx, charCfg, arc)
	if err != nil {
		return arcTables{}, err
	}
	byPoint := make(map[distKey]cells.Distribution, len(dists))
	for _, d := range dists {
		byPoint[distKey{si: d.SlewIdx, li: d.LoadIdx, kind: d.Kind}] = d
	}

	mk := func() ([][]float64, [][]core.Model) {
		nom := make([][]float64, len(idx1))
		mods := make([][]core.Model, len(idx1))
		for i := range nom {
			nom[i] = make([]float64, len(idx2))
			mods[i] = make([]core.Model, len(idx2))
		}
		return nom, mods
	}
	nomD, modD := mk()
	nomT, modT := mk()
	var notesD, notesT []string

	requested := requestedModel(cfg)
	warmable := requested == fit.ModelLVF2 && !cfg.ColdStart
	// anchors holds the column-0 warm-start seeds, one per kind. The
	// first point of a row (lowest load) is the row anchor: it is seeded
	// from the previous row's anchor — a column-0 chain down the slew
	// axis, so only the very first row of an arc pays a cold multi-start.
	// Within a row, every other entry is seeded by its *nearest fitted
	// left neighbour* (rowSeed): a clean fit anywhere in the row becomes
	// the seed for the next column, so the seed tracks the slow drift of
	// the delay surface along the load axis instead of stretching one
	// row-anchor seed across far columns — which is what turned the far
	// columns' gate checks into rejections. A broken link (quarantined or
	// degraded unit) is skipped over mid-row and cold-starts the next
	// anchor at column 0; the chains self-heal on the next clean fit.
	// Seeds are derived from the *decoded payload* model, never the
	// in-memory fit result, so a resumed or distributed build derives
	// bit-identical seeds from the journal and the assembled library does
	// not depend on which process fitted the neighbour.
	anchors := make(map[cells.Kind]*fit.Seed, 2)
	prevAnchors := make(map[cells.Kind]*fit.Seed, 2)
	rowSeed := make(map[cells.Kind]*fit.Seed, 2)
	row := -1
	var stats Stats
	for _, p := range points {
		if p.Row != row {
			row = p.Row
			prevAnchors[cells.Delay], prevAnchors[cells.Transition] = anchors[cells.Delay], anchors[cells.Transition]
			anchors[cells.Delay], anchors[cells.Transition] = nil, nil
			rowSeed[cells.Delay], rowSeed[cells.Transition] = nil, nil
		}
		for _, kind := range [...]cells.Kind{cells.Delay, cells.Transition} {
			k := key(p, kind)
			d, haveDist := byPoint[distKey{si: p.SlewIdx, li: p.LoadIdx, kind: kind}]
			var seed *fit.Seed
			if warmable {
				if p.Col != 0 {
					seed = rowSeed[kind]
				} else {
					seed = prevAnchors[kind]
				}
			}
			unit, uerr := resolveUnit(ctx, cfg, runner, k, requested, d, haveDist, seed)
			if uerr != nil && !errors.Is(uerr, checkpoint.ErrUnitDropped) {
				return arcTables{}, uerr
			}
			stats.Units++
			if unit.Restored {
				stats.Restored++
			}
			if unit.Quarantined {
				stats.Quarantined++
			}
			nom, model, note, warm, perr := unitResult(cfg, unit, arc, p, kind)
			if perr != nil {
				return arcTables{}, perr
			}
			if !unit.Restored {
				switch warm {
				case fit.WarmHit:
					stats.WarmHits++
				case fit.WarmRejected:
					stats.WarmRejected++
				}
			}
			if warmable {
				// A quarantined, dropped or fallback-noted unit cannot
				// seed: its model is a salvage rung, not a converged LVF²
				// neighbour. Mid-row the previous clean neighbour keeps
				// seeding past it; a dirty anchor breaks the column-0
				// chain (and, since rowSeed was just reset, cold-starts
				// the next column too).
				clean := unit.Payload != nil && !unit.Quarantined && note == ""
				if clean {
					rowSeed[kind] = seedFromModel(model)
				}
				if p.Col == 0 {
					if clean {
						anchors[kind] = rowSeed[kind]
					} else {
						anchors[kind] = nil
					}
				}
			}
			if note != "" {
				stats.Fallbacks++
				fmt.Fprintf(cfg.Log, "libbuild: fallback: %s\n", note)
				if kind == cells.Delay {
					notesD = append(notesD, note)
				} else {
					notesT = append(notesT, note)
				}
			}
			if kind == cells.Delay {
				nomD[p.Row][p.Col], modD[p.Row][p.Col] = nom, model
			} else {
				nomT[p.Row][p.Col], modT[p.Row][p.Col] = nom, model
			}
		}
	}

	tmD := liberty.TimingModelFromFits("cell_rise", idx1, idx2, nomD, modD)
	tmD.FallbackNote = strings.Join(notesD, "; ")
	tmT := liberty.TimingModelFromFits("rise_transition", idx1, idx2, nomT, modT)
	tmT.FallbackNote = strings.Join(notesT, "; ")
	return arcTables{delay: tmD, trans: tmT, stats: stats}, nil
}

// requestedModel is the fit model a configuration asks for.
func requestedModel(cfg Config) fit.Model {
	if cfg.LVF2 {
		return fit.ModelLVF2
	}
	return fit.ModelLVF
}

// seedFromModel transports a decoded unit payload into a warm-start
// seed. Deriving the seed from the payload's raw IEEE-754 floats (rather
// than the fitter's in-memory result, whose SkewNormal → Theta → SN
// round-trip is not bit-exact) is what makes warm-started fits a pure
// function of the journal: resume and distribution reproduce them
// bit for bit.
func seedFromModel(m core.Model) *fit.Seed {
	return &fit.Seed{Lambda: m.Lambda, C1: m.Theta1.SN(), C2: m.Theta2.SN()}
}

// fitUnitPayload fits one unit's samples with the requested model —
// warm-started from seed when non-nil — and encodes the journal payload.
// The in-process build path and the distributed worker executor share
// it, so a payload computed remotely is bit-identical to one computed
// locally.
func fitUnitPayload(requested fit.Model, gridStride int, k checkpoint.Key, d cells.Distribution, seed *fit.Seed) ([]byte, error) {
	o := fit.RobustOptions{}
	o.Options.Seed = seed
	m, rep, err := core.FitKindRobust(requested, d.Samples, o)
	if err != nil {
		return nil, fmt.Errorf("fit %s: %w", k, err)
	}
	var note string
	if rep.Fallback || rep.Degenerate || rep.Dropped > 0 {
		note = fmt.Sprintf("%s (%d,%d): %s", k.Arc, k.Slew/gridStride, k.Load/gridStride, rep)
	}
	return encodeUnit(d.NomDelay, m, note, rep.Warm), nil
}

// salvageUnitPayload is the quarantine ladder shared by the build path
// and the distributed worker: a Gaussian fit of the unit's samples when
// they exist, else the ultimate rung — a floored Gaussian at the nominal
// value, which is always constructible, so a poison unit still emits a
// valid table entry.
func salvageUnitPayload(d cells.Distribution, haveDist bool) (payload []byte, rung string) {
	if haveDist {
		if m, rep, err := core.FitKindRobust(fit.ModelGaussian, d.Samples, fit.RobustOptions{}); err == nil {
			return encodeUnit(d.NomDelay, m, "", fit.WarmCold), rep.Used.String()
		}
	}
	nom := d.NomDelay
	m := core.FromLVF(core.Theta{Mean: nom, Sigma: math.Max(math.Abs(nom)*1e-9, 1e-12)})
	return encodeUnit(nom, m, "", fit.WarmCold), "floored-gaussian"
}

// resolveUnit runs one work unit through the checkpoint runner: restore
// if terminal, otherwise fit with retry and quarantine salvage.
func resolveUnit(ctx context.Context, cfg Config, runner *checkpoint.Runner, k checkpoint.Key, requested fit.Model, d cells.Distribution, haveDist bool, seed *fit.Seed) (checkpoint.Unit, error) {
	run := func(context.Context) ([]byte, error) {
		if cfg.fitHook != nil {
			cfg.fitHook(k)
		}
		if cfg.fitErr != nil {
			if err := cfg.fitErr(k); err != nil {
				return nil, err
			}
		}
		if !haveDist {
			// Unreachable: a point is only skipped when both its units are
			// terminal, and terminal units are restored before run is called.
			return nil, fmt.Errorf("libbuild: no samples for unit %s", k)
		}
		return fitUnitPayload(requested, cfg.Char.GridStride, k, d, seed)
	}
	salvage := func(error) ([]byte, string, error) {
		payload, rung := salvageUnitPayload(d, haveDist)
		return payload, rung, nil
	}
	return runner.Do(ctx, k, run, salvage)
}

// unitResult turns a resolved unit into the (nominal, model, note, warm
// outcome) tuple the table assembly consumes.
func unitResult(cfg Config, unit checkpoint.Unit, arc cells.Arc, p cells.GridPoint, kind cells.Kind) (float64, core.Model, string, fit.WarmOutcome, error) {
	if unit.Payload == nil {
		// A dropped unit (quarantined with no salvage payload) still needs
		// a finite table entry; reconstruct the nominal deterministically.
		nd, nt := arc.Elec.NominalEval(cfg.Char.Corner, cfg.Char.Grid.Slews[p.SlewIdx], cfg.Char.Grid.Loads[p.LoadIdx])
		nom := nd
		if kind == cells.Transition {
			nom = nt
		}
		m := core.FromLVF(core.Theta{Mean: nom, Sigma: math.Max(math.Abs(nom)*1e-9, 1e-12)})
		note := fmt.Sprintf("%s (%d,%d): %s [dropped]", arc.Label, p.Row, p.Col, unit.Note)
		return nom, m, note, fit.WarmCold, nil
	}
	nom, model, note, warm, err := decodeUnit(unit.Payload)
	if err != nil {
		return 0, core.Model{}, "", fit.WarmCold, fmt.Errorf("libbuild: unit %s payload: %w", unit.Key, err)
	}
	if unit.Quarantined {
		note = fmt.Sprintf("%s (%d,%d): %s [%s]", arc.Label, p.Row, p.Col, unit.Note, unit.Rung)
	}
	return nom, model, note, warm, nil
}

// -------------------------------------------------- unit payload codec

// unitFloats is the fixed numeric prefix of a unit payload: the nominal
// value followed by the seven model parameters, each as raw IEEE-754
// bits so a restored model is bit-identical to the fitted one. The
// prefix is followed by a length-framed fallback note and one trailing
// warm-start provenance byte; the byte is mandatory, so pre-warm-start
// journals fail decoding loudly instead of silently dropping provenance.
const unitFloats = 8

func encodeUnit(nom float64, m core.Model, note string, warm fit.WarmOutcome) []byte {
	b := make([]byte, 0, unitFloats*8+4+len(note)+1)
	for _, v := range [...]float64{nom, m.Lambda,
		m.Theta1.Mean, m.Theta1.Sigma, m.Theta1.Skew,
		m.Theta2.Mean, m.Theta2.Sigma, m.Theta2.Skew} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(note)))
	b = append(b, note...)
	return append(b, byte(warm))
}

// maxUnitPayload bounds a decodable unit payload. encodeUnit only ever
// produces the fixed float prefix plus a short fallback note, so
// anything larger is a malformed journal record — rejected up front,
// before the note allocation, rather than trusted because its segment
// CRC happened to verify (or because it arrived over the distributed
// protocol, where no CRC vouches for it at all).
const maxUnitPayload = 1 << 16

func decodeUnit(b []byte) (nom float64, m core.Model, note string, warm fit.WarmOutcome, err error) {
	if len(b) < unitFloats*8+4 {
		return 0, core.Model{}, "", fit.WarmCold, fmt.Errorf("short payload (%d bytes)", len(b))
	}
	if len(b) > maxUnitPayload {
		return 0, core.Model{}, "", fit.WarmCold, fmt.Errorf("oversized payload (%d bytes exceeds cap %d)", len(b), maxUnitPayload)
	}
	var f [unitFloats]float64
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	nom = f[0]
	m = core.Model{Lambda: f[1],
		Theta1: core.Theta{Mean: f[2], Sigma: f[3], Skew: f[4]},
		Theta2: core.Theta{Mean: f[5], Sigma: f[6], Skew: f[7]}}
	n := binary.LittleEndian.Uint32(b[unitFloats*8:])
	rest := b[unitFloats*8+4:]
	if uint64(len(rest)) != uint64(n)+1 {
		return 0, core.Model{}, "", fit.WarmCold, fmt.Errorf("note length %d does not match %d remaining bytes", n, len(rest))
	}
	if warm = fit.WarmOutcome(rest[n]); warm > fit.WarmRejected {
		return 0, core.Model{}, "", fit.WarmCold, fmt.Errorf("invalid warm-start outcome %d", rest[n])
	}
	return nom, m, string(rest[:n]), warm, nil
}

// InputPins names a cell's input pins A, B, C, ... (at most six).
func InputPins(n int) []string {
	names := []string{"A", "B", "C", "D", "E", "F"}
	if n > len(names) {
		n = len(names)
	}
	if n < 1 {
		n = 1
	}
	return names[:n]
}
