// Package libbuild is the characterise → fit → emit engine behind the
// libgen CLI: it builds the Liberty library for a set of cell types,
// one journaled work unit per (arc, slew, load, kind) fit. Extracting
// it from the CLI lets the checkpoint tests drive the real emission
// path in-process — kill a build mid-run, reopen the journal, and
// assert the resumed library is bit-identical to an uninterrupted one.
//
// One Executor characterises, seeds, fits and salvages every unit.
// Build drives it locally, one pool task per arc of Plan(cfg); a
// distributed worker (internal/dist) drives it one leased unit at a
// time. Each LVF² fit is warm-started from the link its grid neighbour
// left, a link derived from the neighbour's payload alone, so a unit's
// payload does not depend on which of the two ran it.
//
// Build runs units through checkpoint.Journal.Do: a unit already
// journaled as done or quarantined is restored (never refitted — its
// payload holds the fitted model parameters bit-exactly), and a unit
// whose fit fails is quarantined at once with a degraded emission from
// the salvage ladder, so one bad arc never blocks the other 24 cell
// types. A fit is pure, so running it again could only fail again. An
// arc's Monte-Carlo pass skips every grid point whose two units are
// both already resolved.
package libbuild

import (
	"context"
	"encoding/binary"
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
		// written in one mode must not be resumed in the other. fit names
		// the fit numerics that produced the payload bits.
		Options: fmt.Sprintf("format=%s,start=%s,fit=%s", format, start, fit.Revision),
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

// key names the unit of kind at grid point (si, li) of the job's arc.
func (j arcJob) key(si, li int, kind cells.Kind) checkpoint.Key {
	return checkpoint.Key{Cell: j.arc.Cell, Pin: j.pin, Arc: j.arc.Label, Slew: si, Load: li, Kind: kind.String()}
}

// planJobs enumerates the arcs of a build in deterministic library
// order, together with each cell type's input pin names. Plan, the
// Executor and Build's assembly share it so every process agrees on the
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
// ready for liberty.WriteLibrary. It drives the Executor locally:
// one pool task per arc of Plan(cfg) runs the arc's units
// through cfg.Journal.Do and the Executor, and Build itself only
// counts stats and assembles the tables. On error (including
// cancellation) the journal still holds every unit sealed so far, so a
// rerun against the same journal resumes instead of restarting.
func Build(ctx context.Context, cfg Config) (*liberty.Group, Stats, error) {
	cfg.Char = cfg.Char.WithDefaults()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	exec, err := NewExecutor(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	// Seal whatever the run produced even on the error paths: resumability
	// of a failed run is the whole point of the journal.
	defer cfg.Journal.Flush()

	refs, _ := Plan(cfg)
	jobs, pinsOf := planJobs(cfg)
	per := 2 * len(cfg.Char.SweepPoints()) // units per arc
	units := make([]checkpoint.Unit, len(refs))
	labels := make([]string, len(jobs))
	for i, j := range jobs {
		labels[i] = j.arc.Label
	}
	err = pool.ForEachLabeled(ctx, pool.Options{Workers: cfg.Char.Workers, TaskTimeout: cfg.Char.ArcTimeout}, labels,
		func(tctx context.Context, i int) error {
			return exec.runArc(tctx, cfg.Journal, refs[i*per:(i+1)*per], units[i*per:(i+1)*per])
		})

	var stats Stats
	tables := make([][2]*liberty.TimingModel, len(jobs))
	for i := range jobs {
		var terr error
		tables[i], terr = arcTables(cfg, units[i*per:(i+1)*per], &stats)
		if err == nil {
			err = terr
		}
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
			for _, tm := range tables[job] {
				tm.AppendTo(timing, TemplateName, cfg.LVF2)
			}
		}
	}
	return lib, stats, nil
}

// arcTables assembles one arc's delay and transition tables from its
// resolved units (in plan order) and adds the units to stats. Notes are
// joined in grid order, so a resumed or distributed build emits the
// same ocv_fallback_note_* strings as an uninterrupted one. A unit the
// build never reached (it failed first) is skipped.
func arcTables(cfg Config, units []checkpoint.Unit, stats *Stats) ([2]*liberty.TimingModel, error) {
	grid, stride := cfg.Char.Grid, cfg.Char.GridStride
	var idx1, idx2 []float64
	for i := 0; i < len(grid.Slews); i += stride {
		idx1 = append(idx1, grid.Slews[i])
	}
	for j := 0; j < len(grid.Loads); j += stride {
		idx2 = append(idx2, grid.Loads[j])
	}
	var noms [2][][]float64
	var mods [2][][]core.Model
	var notes [2][]string
	for t := range noms {
		noms[t], mods[t] = make([][]float64, len(idx1)), make([][]core.Model, len(idx1))
		for r := range noms[t] {
			noms[t][r], mods[t][r] = make([]float64, len(idx2)), make([]core.Model, len(idx2))
		}
	}
	for i, u := range units {
		if u.Key == (checkpoint.Key{}) {
			continue
		}
		kind := cells.Kind(i % 2) // plan order alternates Delay, Transition
		row, col := u.Key.Slew/stride, u.Key.Load/stride
		stats.Units++
		if u.Restored {
			stats.Restored++
		}
		if u.Quarantined {
			stats.Quarantined++
		}
		nom, model, note, warm, err := decodeUnit(u.Payload)
		if err != nil {
			return [2]*liberty.TimingModel{}, fmt.Errorf("libbuild: unit %s payload: %w", u.Key, err)
		}
		if u.Quarantined {
			note = fmt.Sprintf("%s (%d,%d): %s [%s]", u.Key.Arc, row, col, u.Note, u.Rung)
		}
		if !u.Restored {
			switch warm {
			case fit.WarmHit:
				stats.WarmHits++
			case fit.WarmRejected:
				stats.WarmRejected++
			}
		}
		if note != "" {
			stats.Fallbacks++
			fmt.Fprintf(cfg.Log, "libbuild: fallback: %s\n", note)
			notes[kind] = append(notes[kind], note)
		}
		noms[kind][row][col], mods[kind][row][col] = nom, model
	}
	var out [2]*liberty.TimingModel
	for t, group := range [...]string{"cell_rise", "rise_transition"} {
		out[t] = liberty.TimingModelFromFits(group, idx1, idx2, noms[t], mods[t])
		out[t].FallbackNote = strings.Join(notes[t], "; ")
	}
	return out, nil
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

// salvageUnitPayload is the Executor's quarantine ladder: a Gaussian
// fit of the unit's samples when they exist, else the ultimate rung — a
// floored Gaussian at the nominal value, which is always constructible,
// so a poison unit still emits a valid table entry.
func salvageUnitPayload(d cells.Distribution) (payload []byte, rung string) {
	if len(d.Samples) > 0 {
		if m, rep, err := core.FitKindRobust(fit.ModelGaussian, d.Samples, fit.RobustOptions{}); err == nil {
			return encodeUnit(d.NomDelay, m, "", fit.WarmCold), rep.Used.String()
		}
	}
	nom := d.NomDelay
	m := core.FromLVF(core.Theta{Mean: nom, Sigma: math.Max(math.Abs(nom)*1e-9, 1e-12)})
	return encodeUnit(nom, m, "", fit.WarmCold), "floored-gaussian"
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

// CheckPayload reports whether b decodes as a unit payload: a Done or
// quarantined record must, or every later assembly of the library fails.
func CheckPayload(b []byte) error {
	_, _, _, _, err := decodeUnit(b)
	return err
}

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
