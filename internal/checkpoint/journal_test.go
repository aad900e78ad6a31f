package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"lvf2/internal/faultinject"
	"lvf2/internal/modelcache"
)

var testFP = Fingerprint{Library: "testlib", Seed: 42, Samples: 1000, GridStride: 1, Options: "format=lvf2"}

func testKey(i int) Key {
	return Key{Cell: "INV_X1", Pin: "A", Arc: "arc", Slew: i, Load: i % 3, Kind: "delay"}
}

func mustOpen(t *testing.T, fsys FS, dir string, fp Fingerprint, opts Options) *Journal {
	t.Helper()
	j, err := Open(fsys, dir, fp, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func TestJournalRoundtrip(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})

	payload := []byte{1, 2, 3, 4}
	if err := j.Done(testKey(0), payload); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := j.Quarantined(testKey(2), "gaussian", "poison arc", []byte{9}); err != nil {
		t.Fatalf("Quarantined: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	rec, ok := j2.Lookup(testKey(0))
	if !ok || rec.Status != StatusDone || string(rec.Payload) != string(payload) {
		t.Errorf("done record = %+v ok=%v", rec, ok)
	}
	rec, ok = j2.Lookup(testKey(2))
	if !ok || rec.Status != StatusQuarantined || rec.Rung != "gaussian" || rec.Note != "poison arc" || string(rec.Payload) != "\x09" {
		t.Errorf("quarantined record = %+v ok=%v", rec, ok)
	}
	if st := j2.Stats(); st.Resolved != 2 || st.Segments != 1 || st.TornRecords != 0 {
		t.Errorf("stats = %+v, want Resolved=2 Segments=1", st)
	}
}

func TestJournalLatestRecordWins(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	k := testKey(0)
	j.Quarantined(k, "gaussian", "first", []byte("salvage"))
	j.Flush()
	j.Done(k, []byte("second"))
	j.Done(k, []byte("final"))
	j.Close()

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	rec, ok := j2.Lookup(k)
	if !ok || rec.Status != StatusDone || rec.Note != "" || string(rec.Payload) != "final" {
		t.Errorf("latest record should win, got %+v ok=%v", rec, ok)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), []byte("seg0"))
	j.Flush()
	j.Done(testKey(1), []byte("kept"))
	j.Done(testKey(2), []byte("torn-away"))
	j.Close()

	// Tear the newest segment mid-way through its final record: the kept
	// record replays, the torn one is dropped, earlier segments intact.
	last := filepath.Join("ckpt", segName(1))
	b, err := fsys.ReadFile(last)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	fsys.Truncate(last, len(b)-3)

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	if _, ok := j2.Lookup(testKey(0)); !ok {
		t.Error("record in sealed earlier segment lost")
	}
	if _, ok := j2.Lookup(testKey(1)); !ok {
		t.Error("valid record before the torn tail lost")
	}
	if _, ok := j2.Lookup(testKey(2)); ok {
		t.Error("torn record replayed")
	}
	if st := j2.Stats(); st.TornRecords == 0 {
		t.Errorf("stats = %+v, want TornRecords > 0", st)
	}
}

func TestJournalTornBeforeHeaderTolerated(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), nil)
	j.Flush()
	j.Done(testKey(1), nil)
	j.Close()
	fsys.Truncate(filepath.Join("ckpt", segName(1)), segHeaderLen-5)

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	if _, ok := j2.Lookup(testKey(0)); !ok {
		t.Error("earlier segment lost")
	}
	if _, ok := j2.Lookup(testKey(1)); ok {
		t.Error("record from headerless torn segment replayed")
	}
}

func TestJournalMidCorruptionIsFatal(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), []byte("seg0"))
	j.Flush()
	j.Done(testKey(1), []byte("seg1"))
	j.Close()

	// Any malformation in a non-newest segment is corruption, not a torn
	// tail: flip a payload byte so its record checksum fails.
	first := filepath.Join("ckpt", segName(0))
	b, _ := fsys.ReadFile(first)
	fsys.FlipByte(first, len(b)-1)

	_, err := Open(fsys, "ckpt", testFP, Options{})
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("Open = %v, want ErrCorruptJournal", err)
	}
	if errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mid-segment rot misreported as fingerprint mismatch: %v", err)
	}
}

func TestJournalBadMagicIsFatal(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), nil)
	j.Flush()
	j.Done(testKey(1), nil)
	j.Close()
	fsys.FlipByte(filepath.Join("ckpt", segName(0)), 0)

	if _, err := Open(fsys, "ckpt", testFP, Options{}); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("Open = %v, want ErrCorruptJournal", err)
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), nil)
	j.Close()

	other := testFP
	other.Seed++
	_, err := Open(fsys, "ckpt", other, Options{})
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("Open = %v, want ErrFingerprintMismatch", err)
	}
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatal("ErrFingerprintMismatch must also read as ErrCorruptJournal")
	}
}

func TestJournalFlushEveryRotation(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{FlushEvery: 2})
	for i := 0; i < 5; i++ {
		j.Done(testKey(i), nil)
	}
	// 5 records at FlushEvery=2: two auto-sealed segments, one pending.
	if st := j.Stats(); st.Segments != 2 {
		t.Errorf("segments before close = %d, want 2", st.Segments)
	}
	j.Close()
	if st := j.Stats(); st.Segments != 3 {
		t.Errorf("segments after close = %d, want 3", st.Segments)
	}

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	if st := j2.Stats(); st.Resolved != 5 || st.Segments != 3 {
		t.Errorf("replay stats = %+v, want Resolved=5 Segments=3", st)
	}
}

func TestJournalReset(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), nil)
	j.Close()

	if err := Reset(fsys, "ckpt"); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	if st := j2.Stats(); st.Resolved != 0 || st.Segments != 0 {
		t.Errorf("post-reset stats = %+v, want cold start", st)
	}
	if err := Reset(fsys, "no-such-dir"); err != nil {
		t.Errorf("Reset on missing dir: %v", err)
	}
}

// TestOpenRun pins the command-line journal policy: a fresh run starts
// cold, a resumed run replays, and a corrupt journal warns once and
// starts cold instead of failing.
func TestOpenRun(t *testing.T) {
	fsys := faultinject.NewMemFS()
	seed := func() {
		j := mustOpen(t, fsys, "ckpt", testFP, Options{})
		j.Done(testKey(0), []byte("seg0"))
		j.Flush()
		j.Done(testKey(1), []byte("seg1"))
		j.Close()
	}
	open := func(resume bool) (*Journal, string) {
		t.Helper()
		var warn strings.Builder
		j, err := OpenRun(fsys, "ckpt", testFP, resume, &warn, "prog")
		if err != nil {
			t.Fatalf("OpenRun(resume=%v): %v", resume, err)
		}
		defer j.Close()
		return j, warn.String()
	}

	seed()
	if j, warn := open(true); j.Stats().Resolved != 2 || warn != "" {
		t.Errorf("resume: %d resolved, warning %q; want 2, none", j.Stats().Resolved, warn)
	}
	if j, warn := open(false); j.Stats().Resolved != 0 || warn != "" {
		t.Errorf("fresh run: %d resolved, warning %q; want a silent cold start", j.Stats().Resolved, warn)
	}

	seed()
	fsys.FlipByte(filepath.Join("ckpt", segName(0)), 0)
	j, warn := open(true)
	if j.Stats().Resolved != 0 || !strings.HasPrefix(warn, "prog: checkpoint: corrupt journal") ||
		!strings.HasSuffix(warn, " — starting cold\n") {
		t.Errorf("corrupt resume: %d resolved, warning %q; want a warned cold start", j.Stats().Resolved, warn)
	}
}

// TestJournalRefusesOtherVersions: a segment stamped with any version
// but JournalVersion is corrupt, so records of another format are never
// misread, and a resumed command-line run says why, resets the
// directory and starts cold.
func TestJournalRefusesOtherVersions(t *testing.T) {
	for _, v := range []uint32{0, 1, JournalVersion + 1, math.MaxUint32} {
		fsys := faultinject.NewMemFS()
		j := mustOpen(t, fsys, "ckpt", testFP, Options{})
		j.Done(testKey(0), []byte("payload"))
		j.Close()
		path := filepath.Join("ckpt", segName(0))
		b, err := fsys.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[len(journalMagic):], v)
		fsys.WriteFile(path, b)

		_, err = Open(fsys, "ckpt", testFP, Options{})
		if !errors.Is(err, ErrCorruptJournal) || errors.Is(err, ErrFingerprintMismatch) {
			t.Errorf("version %d: Open = %v, want ErrCorruptJournal", v, err)
		}

		var warn strings.Builder
		j2, err := OpenRun(fsys, "ckpt", testFP, true, &warn, "prog")
		if err != nil {
			t.Fatalf("version %d: OpenRun: %v", v, err)
		}
		want := fmt.Sprintf("prog: checkpoint: corrupt journal: unsupported version %d (this build reads %d) (%s) — starting cold\n",
			v, JournalVersion, segName(0))
		if warn.String() != want {
			t.Errorf("version %d: warning %q, want %q", v, warn.String(), want)
		}
		if st := j2.Stats(); st.Resolved != 0 || st.Segments != 0 {
			t.Errorf("version %d: stats after OpenRun = %+v, want a cold start", v, st)
		}
		if _, err := fsys.ReadFile(path); err == nil {
			t.Errorf("version %d: the refused segment survived the reset", v)
		}
		j2.Close()
	}
}

func TestJournalTerminal(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	defer j.Close()
	j.Done(testKey(0), nil)
	j.Quarantined(testKey(2), "gaussian", "poison", nil)
	for i, want := range []bool{true, false, true, false} {
		if got := j.Terminal(testKey(i)); got != want {
			t.Errorf("Terminal(key %d) = %v, want %v", i, got, want)
		}
	}
	var nilJ *Journal
	if nilJ.Terminal(testKey(0)) {
		t.Error("nil journal reports a terminal unit")
	}
}

// flakyFS fails the first failN Rename calls, simulating a transiently
// full or erroring disk during segment installation.
type flakyFS struct {
	*faultinject.MemFS
	failN int
}

func (f *flakyFS) Rename(oldpath, newpath string) error {
	if f.failN > 0 {
		f.failN--
		return errors.New("injected rename failure")
	}
	return f.MemFS.Rename(oldpath, newpath)
}

func TestJournalSealFailureKeepsRecordsPending(t *testing.T) {
	fsys := &flakyFS{MemFS: faultinject.NewMemFS(), failN: 1}
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	j.Done(testKey(0), []byte("survivor"))

	if err := j.Flush(); err == nil {
		t.Fatal("Flush should surface the seal failure")
	}
	if st := j.Stats(); st.AppendErrs != 1 || st.Segments != 0 {
		t.Errorf("stats after failed seal = %+v", st)
	}
	// The record stays pending and in the in-memory state…
	if _, ok := j.Lookup(testKey(0)); !ok {
		t.Fatal("record lost from memory after failed seal")
	}
	// …and the next Flush retries and lands it durably.
	if err := j.Close(); err != nil {
		t.Fatalf("Close retry: %v", err)
	}
	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	if rec, ok := j2.Lookup(testKey(0)); !ok || string(rec.Payload) != "survivor" {
		t.Errorf("record not durable after retried seal: %+v ok=%v", rec, ok)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Done(testKey(0), nil); err != nil {
		t.Errorf("nil Done: %v", err)
	}
	if _, ok := j.Lookup(testKey(0)); ok {
		t.Error("nil Lookup found a record")
	}
	if err := j.Flush(); err != nil {
		t.Errorf("nil Flush: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if recs := j.Records(); recs != nil {
		t.Errorf("nil Records = %v", recs)
	}
}

func TestJournalOSFS(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	var fsys FS = OSFS{OSFS: modelcache.OSFS{}}
	j := mustOpen(t, fsys, dir, testFP, Options{})
	j.Done(testKey(0), []byte("on disk"))
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, fsys, dir, testFP, Options{})
	if rec, ok := j2.Lookup(testKey(0)); !ok || string(rec.Payload) != "on disk" {
		t.Errorf("OSFS roundtrip: %+v ok=%v", rec, ok)
	}
}
