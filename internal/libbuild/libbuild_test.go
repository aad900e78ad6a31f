package libbuild

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/core"
	"lvf2/internal/faultinject"
	"lvf2/internal/fit"
	"lvf2/internal/liberty"
)

// fastRetry is a retry policy with an instant fake clock, so quarantine
// paths run without real backoff sleeps.
var fastRetry = checkpoint.RetryPolicy{
	MaxAttempts: 2,
	Sleep:       func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
}

// testConfig is a small but non-trivial build: two cell types, two arcs
// each, a 2×2 subsampled grid — 32 work units total.
func testConfig() Config {
	inv, _ := cells.CellByName("INV")
	nand, _ := cells.CellByName("NAND2")
	return Config{
		Types:   []cells.CellType{inv, nand},
		ArcsPer: 2,
		Char: cells.CharConfig{
			Samples:    400,
			Seed:       99,
			GridStride: 4,
			Workers:    2,
		},
		LVF2:  true,
		Retry: fastRetry,
	}
}

func buildBytes(t *testing.T, ctx context.Context, cfg Config) ([]byte, Stats) {
	t.Helper()
	lib, stats, err := Build(ctx, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	if err := liberty.WriteLibrary(&buf, lib); err != nil {
		t.Fatalf("WriteLibrary: %v", err)
	}
	return buf.Bytes(), stats
}

func openTestJournal(t *testing.T, fsys checkpoint.FS, cfg Config) *checkpoint.Journal {
	t.Helper()
	j, err := checkpoint.Open(fsys, "ckpt", cfg.Fingerprint(), checkpoint.Options{FlushEvery: 4})
	if err != nil {
		t.Fatalf("Open journal: %v", err)
	}
	return j
}

// goldenLibSHA256 is the sha256 of the testConfig() library at fit
// Revision "mstep-newton" (it was f2790e44…4c203e11 under the simplex
// M-step).
const goldenLibSHA256 = "297f5a667ec8d1f3e47c054d6e01ada7f14af2cdff5c54e138216063a85042cc"

// TestBuildGoldenSHA256 pins the bytes of the testConfig() library, so a
// change that moves any fitted or emitted bit shows here and not only in
// the by-hand library sha256 a benchmark run prints. It is pinned on
// amd64 only: elsewhere Go may fuse multiply-adds, which moves last bits,
// so other architectures check repeatability alone. A change that moves
// the fitted bits must change fit.Revision too.
func TestBuildGoldenSHA256(t *testing.T) {
	lib, _ := buildBytes(t, context.Background(), testConfig())
	got := fmt.Sprintf("%x", sha256.Sum256(lib))
	if runtime.GOARCH != "amd64" {
		again, _ := buildBytes(t, context.Background(), testConfig())
		if !bytes.Equal(lib, again) {
			t.Fatal("two builds of testConfig() differ")
		}
		return
	}
	if got != goldenLibSHA256 {
		t.Fatalf("testConfig() library sha256 = %s, want %s", got, goldenLibSHA256)
	}
}

// TestBuildGoldenKillAndResume is the package's headline guarantee: a
// build killed mid-run and resumed against its journal emits a library
// bit-identical to an uninterrupted build, and no unit the journal
// already resolved is ever refitted.
func TestBuildGoldenKillAndResume(t *testing.T) {
	golden, gstats := buildBytes(t, context.Background(), testConfig())
	if gstats.Units != 32 {
		t.Fatalf("golden units = %d, want 32", gstats.Units)
	}

	// Interrupted run: cancel the context after 10 fits, mid-build.
	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fits atomic.Int64
	cfg.fitHook = func(checkpoint.Key) {
		if fits.Add(1) == 10 {
			cancel()
		}
	}
	if _, _, err := Build(ctx, cfg); err == nil {
		t.Fatal("interrupted build should return the cancellation error")
	}
	j.Close()

	// Snapshot the units the journal resolved before the resume.
	j2 := openTestJournal(t, fsys, cfg)
	doneBefore := make(map[checkpoint.Key]bool)
	for _, rec := range j2.Records() {
		if rec.Status.Terminal() {
			doneBefore[rec.Key] = true
		}
	}
	if len(doneBefore) == 0 {
		t.Fatal("kill landed before any unit sealed; cancel point too early for this test")
	}

	// Resume: no resolved unit may be refitted, and the bytes must match.
	var mu sync.Mutex
	var refitted []checkpoint.Key
	cfg2 := testConfig()
	cfg2.Journal = j2
	cfg2.fitHook = func(k checkpoint.Key) {
		if doneBefore[k] {
			mu.Lock()
			refitted = append(refitted, k)
			mu.Unlock()
		}
	}
	resumed, rstats := buildBytes(t, context.Background(), cfg2)
	if len(refitted) > 0 {
		t.Errorf("%d journaled units refitted on resume: %v", len(refitted), refitted)
	}
	if rstats.Restored != len(doneBefore) {
		t.Errorf("stats.Restored = %d, want %d", rstats.Restored, len(doneBefore))
	}
	if !bytes.Equal(resumed, golden) {
		t.Errorf("resumed library differs from golden (%d vs %d bytes)", len(resumed), len(golden))
	}
}

// TestBuildResumeAfterTornTail drops the newest sealed segment's tail
// (the shape a crash mid-append leaves) and checks the resumed build
// still converges to the golden bytes: lost units are just recomputed.
func TestBuildResumeAfterTornTail(t *testing.T) {
	golden, _ := buildBytes(t, context.Background(), testConfig())

	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fits atomic.Int64
	cfg.fitHook = func(checkpoint.Key) {
		if fits.Add(1) == 12 {
			cancel()
		}
	}
	Build(ctx, cfg)
	j.Close()

	// Tear the newest segment a few bytes short.
	paths := fsys.Paths()
	if len(paths) == 0 {
		t.Fatal("no sealed segments to tear")
	}
	last := paths[len(paths)-1]
	b, _ := fsys.ReadFile(last)
	fsys.Truncate(last, len(b)-5)

	j2 := openTestJournal(t, fsys, cfg)
	if st := j2.Stats(); st.TornRecords == 0 {
		t.Logf("note: truncation fell on a record boundary (stats %+v)", st)
	}
	cfg2 := testConfig()
	cfg2.Journal = j2
	resumed, _ := buildBytes(t, context.Background(), cfg2)
	if !bytes.Equal(resumed, golden) {
		t.Error("resumed library after torn tail differs from golden")
	}
}

// TestBuildQuarantinePoisonArc injects a permanent fit fault into one
// arc's units: the build must complete, quarantine those units onto a
// degraded rung, note them in the Liberty output, and leave every other
// arc untouched.
func TestBuildQuarantinePoisonArc(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	cfg.fitErr = func(k checkpoint.Key) error {
		if k.Arc == "INV/arc00" && k.Kind == "Delay" {
			return errors.New("injected poison fit")
		}
		return nil
	}
	var logBuf bytes.Buffer
	cfg.Log = &logBuf

	out, stats := buildBytes(t, context.Background(), cfg)
	if stats.Quarantined != 4 { // 2×2 grid → 4 Delay units on the poison arc
		t.Errorf("stats.Quarantined = %d, want 4", stats.Quarantined)
	}
	text := string(out)
	if !strings.Contains(text, "ocv_fallback_note") {
		t.Error("quarantined build emitted no ocv_fallback_note attribute")
	}
	if !strings.Contains(text, "quarantined after 2 attempts") {
		t.Error("quarantine note missing from library output")
	}
	if !strings.Contains(logBuf.String(), "INV/arc00") {
		t.Error("quarantine not logged")
	}

	// The journal carries the rung so a resume restores the same salvage.
	rungs := 0
	for _, rec := range j.Records() {
		if rec.Status == checkpoint.StatusQuarantined {
			if rec.Rung == "" {
				t.Errorf("quarantined record %s has no rung", rec.Key)
			}
			rungs++
		}
	}
	if rungs != 4 {
		t.Errorf("journaled quarantined records = %d, want 4", rungs)
	}

	// Resume after quarantine: bit-identical, nothing refitted.
	j.Close()
	j2 := openTestJournal(t, fsys, cfg)
	cfg2 := testConfig()
	cfg2.Journal = j2
	cfg2.fitErr = cfg.fitErr
	cfg2.fitHook = func(k checkpoint.Key) { t.Errorf("unit %s refitted after full run", k) }
	resumed, rstats := buildBytes(t, context.Background(), cfg2)
	if !bytes.Equal(resumed, out) {
		t.Error("resumed quarantined library differs")
	}
	if rstats.Restored != rstats.Units {
		t.Errorf("resume after complete run restored %d of %d units", rstats.Restored, rstats.Units)
	}
}

// TestBuildCorruptJournalColdStart rots a mid-journal segment: Open must
// refuse with ErrCorruptJournal, and the documented recovery (Reset +
// cold build) must still produce the golden bytes.
func TestBuildCorruptJournalColdStart(t *testing.T) {
	golden, _ := buildBytes(t, context.Background(), testConfig())

	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	buildBytes(t, context.Background(), cfg)
	j.Close()

	paths := fsys.Paths()
	if len(paths) < 2 {
		t.Fatalf("want ≥2 segments to corrupt mid-journal, have %d", len(paths))
	}
	b, _ := fsys.ReadFile(paths[0])
	fsys.FlipByte(paths[0], len(b)/2)

	_, err := checkpoint.Open(fsys, "ckpt", cfg.Fingerprint(), checkpoint.Options{})
	if !errors.Is(err, checkpoint.ErrCorruptJournal) {
		t.Fatalf("Open over rotten journal = %v, want ErrCorruptJournal", err)
	}
	if err := checkpoint.Reset(fsys, "ckpt"); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	j2 := openTestJournal(t, fsys, cfg)
	cfg2 := testConfig()
	cfg2.Journal = j2
	cold, stats := buildBytes(t, context.Background(), cfg2)
	if stats.Restored != 0 {
		t.Errorf("cold start restored %d units", stats.Restored)
	}
	if !bytes.Equal(cold, golden) {
		t.Error("cold rebuild differs from golden")
	}
}

// TestBuildFingerprintMismatch: a journal from a different configuration
// must not resume.
func TestBuildFingerprintMismatch(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := testConfig()
	j := openTestJournal(t, fsys, cfg)
	cfg.Journal = j
	buildBytes(t, context.Background(), cfg)
	j.Close()

	other := testConfig()
	other.Char.Seed++
	_, err := checkpoint.Open(fsys, "ckpt", other.Fingerprint(), checkpoint.Options{})
	if !errors.Is(err, checkpoint.ErrFingerprintMismatch) {
		t.Fatalf("Open with changed seed = %v, want ErrFingerprintMismatch", err)
	}
}

// TestBuildRefusesOtherFitRevision: a journal written under other fit
// numerics — here the Options string of the simplex M-step builds, which
// named no fit revision — holds payload bits this code would not produce,
// so it must not resume.
func TestBuildRefusesOtherFitRevision(t *testing.T) {
	cfg := testConfig()
	if !strings.HasSuffix(cfg.Fingerprint().Options, ",fit="+fit.Revision) {
		t.Fatalf("fingerprint options %q do not name fit revision %q", cfg.Fingerprint().Options, fit.Revision)
	}
	old := cfg.Fingerprint()
	old.Options = "format=lvf2,start=warm-nn"
	fsys := faultinject.NewMemFS()
	j, err := checkpoint.Open(fsys, "ckpt", old, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.Key{Cell: "INV", Pin: "A", Arc: "INV/arc00", Kind: "delay"}
	if err := j.Done(key, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Open(fsys, "ckpt", cfg.Fingerprint(), checkpoint.Options{}); !errors.Is(err, checkpoint.ErrFingerprintMismatch) {
		t.Fatalf("Open over a journal of other fit numerics = %v, want ErrFingerprintMismatch", err)
	}
}

func TestUnitCodecRoundtrip(t *testing.T) {
	m := core.Model{Lambda: 0.3,
		Theta1: core.Theta{Mean: 1.25e-2, Sigma: 3.5e-4, Skew: -0.7},
		Theta2: core.Theta{Mean: 1.75e-2, Sigma: 9e-4, Skew: 1.1}}
	for _, note := range []string{"", "INV/arc00 (0,1): LVF2→Gaussian"} {
		for _, warm := range []fit.WarmOutcome{fit.WarmCold, fit.WarmHit, fit.WarmRejected} {
			b := encodeUnit(0.0123, m, note, warm)
			nom, got, gotNote, gotWarm, err := decodeUnit(b)
			if err != nil {
				t.Fatalf("decodeUnit: %v", err)
			}
			if nom != 0.0123 || got != m || gotNote != note || gotWarm != warm {
				t.Errorf("roundtrip mismatch: %v %+v %q %v", nom, got, gotNote, gotWarm)
			}
		}
	}
	if _, _, _, _, err := decodeUnit([]byte{1, 2, 3}); err == nil {
		t.Error("short payload accepted")
	}
	long := encodeUnit(1, m, "note", fit.WarmCold)
	if _, _, _, _, err := decodeUnit(long[:len(long)-2]); err == nil {
		t.Error("truncated note accepted")
	}
	if _, _, _, _, err := decodeUnit(long[:len(long)-1]); err == nil {
		t.Error("payload without provenance byte accepted")
	}
	bad := encodeUnit(1, m, "", 99)
	if _, _, _, _, err := decodeUnit(bad); err == nil {
		t.Error("out-of-range warm outcome accepted")
	}
	if !math.IsNaN(func() float64 {
		nom, _, _, _, _ := decodeUnit(encodeUnit(math.NaN(), m, "", fit.WarmHit))
		return nom
	}()) {
		t.Error("NaN nominal not bit-preserved")
	}
}
