// Package checkpoint makes the offline characterisation pipeline
// resumable: a durable journal of work-unit results keyed by the full
// arc coordinate (cell, pin, arc, slew, load, kind) plus a config
// fingerprint, so a crash, OOM kill or SIGTERM at minute 40 of a
// paper-scale library build loses at most one unsealed segment of work
// instead of everything. PR 4 gave the serving side (lvf2d) crash-safe
// snapshots; this package gives the same durability to the producers —
// cells characterisation, the Table 1/Table 2 experiment drivers and
// the libgen/exptables CLIs.
//
// A unit resolves through Journal.Do under one rule: restored if the
// journal holds it, otherwise run once, and on failure quarantined with
// its salvage payload and QuarantineNote. A unit's payload is a pure
// function of its key and the fingerprinted configuration, so a failed
// unit is never run again.
//
// Journal layout: a directory of sealed segments ckpt-NNNNNN.seg, each
// written as a temp file and atomically installed (write, fsync,
// rename) through the pluggable FS, so a reader never observes a
// half-written segment under POSIX rename semantics. Each segment is
//
//	offset  size  field
//	0       8     magic "LVF2JRN1"
//	8       4     format version (currently 2)
//	12      8     config fingerprint (FNV-64a of the canonical config)
//	20      ...   records
//
// and each record is
//
//	u32 body length | u32 CRC-32 (IEEE) of body | body
//
// with body
//
//	u8 status | cell, pin, arc, kind, rung, note (each u32 length + bytes) |
//	u32 slew | u32 load | payload (the rest of the body)
//
// Every record is terminal: done or quarantined.
//
// Replay is all-or-nothing per segment and validated record by record:
// a torn tail (truncated record, bad final CRC — the shape a crashed
// write leaves behind) in the NEWEST segment is tolerated by truncating
// at the last valid checksum; any malformation elsewhere — bad magic,
// unsupported version, fingerprint mismatch, mid-journal CRC failure —
// returns a typed error (errors.Is ErrCorruptJournal) and installs
// nothing, so a rotten journal degrades to a clean cold start instead
// of resuming from lies.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"lvf2/internal/modelcache"
)

// journalMagic identifies a checkpoint journal segment.
const journalMagic = "LVF2JRN1"

// JournalVersion is the current segment format version. Decoders reject
// any other version: records carry fitted model parameters, and a
// silent cross-version reinterpretation would emit wrong timing.
const JournalVersion = 2

// maxRecordLen bounds a single record so a hostile length prefix cannot
// drive a huge allocation before its CRC is verified.
const maxRecordLen = 1 << 24

// segHeaderLen is the fixed segment header size.
const segHeaderLen = len(journalMagic) + 4 + 8

// ErrCorruptJournal is the base error of every replay failure beyond a
// tolerated torn tail. Callers branch with errors.Is: corrupt means
// "reset and cold-start", never "crash" and never "trust partially".
var ErrCorruptJournal = errors.New("checkpoint: corrupt journal")

// ErrFingerprintMismatch marks a journal written under a different
// configuration (seed, sample count, fit options, library). Resuming it
// would splice incompatible results, so it reads as corrupt.
var ErrFingerprintMismatch = fmt.Errorf("%w: config fingerprint mismatch", ErrCorruptJournal)

func badJournal(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorruptJournal, fmt.Sprintf(format, args...))
}

// Key is the full coordinate of one characterisation work unit.
// The JSON tags are its wire form in the distributed protocol.
type Key struct {
	Cell string `json:"cell"`
	Pin  string `json:"pin"`
	Arc  string `json:"arc"`
	Slew int    `json:"slew"` // slew grid index
	Load int    `json:"load"` // load grid index
	Kind string `json:"kind"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s(%d,%d)/%s", k.Cell, k.Pin, k.Arc, k.Slew, k.Load, k.Kind)
}

// Status is the journaled outcome of a unit.
type Status uint8

// Unit statuses. Both are terminal: a journaled unit is never
// recomputed on resume.
const (
	StatusDone Status = iota + 1
	StatusQuarantined
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Record is one journaled unit outcome.
type Record struct {
	Key     Key
	Status  Status
	Rung    string // degradation rung that produced a quarantined emission
	Note    string // provenance / cause, verbatim into ocv_fallback_note_*
	Payload []byte // serialised unit result, or a quarantined unit's salvage
}

// Fingerprint identifies the configuration a journal belongs to. Two
// runs may share a journal only when every field matches: a completed
// unit is only bit-identical to a recomputation under the same seed,
// sample count, grid and fit options.
type Fingerprint struct {
	Library    string // library / electrical-substrate identity
	Seed       uint64
	Samples    int
	GridStride int
	Options    string // canonical fit/format options string
}

// hash folds the fingerprint to the 8-byte segment-header form.
func (f Fingerprint) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d|%s", f.Library, f.Seed, f.Samples, f.GridStride, f.Options)
	return h.Sum64()
}

// Hash exposes the folded fingerprint. The distributed protocol stamps
// it on every lease and result submission so a coordinator never
// accepts work computed under a different configuration.
func (f Fingerprint) Hash() uint64 { return f.hash() }

// FS is the filesystem seam of the journal: the snapshot FS of
// internal/modelcache plus the directory operations segment discovery
// needs. internal/faultinject's MemFS and FaultFS implement it, so the
// chaos suite can tear writes and rot segments under the real code.
type FS interface {
	modelcache.FS
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error) // base names, any order
}

// OSFS is the real filesystem.
type OSFS struct{ modelcache.OSFS }

// MkdirAll creates dir and parents.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir lists the base names in dir.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names, nil
}

// Options tunes a journal.
type Options struct {
	// FlushEvery seals a segment after this many appended records
	// (default 64). Records in the unsealed buffer are lost by a hard
	// kill; smaller values trade more segment files for a smaller
	// at-risk window. Flush/Close always seal the remainder.
	FlushEvery int
}

func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 64
	}
	return o
}

// Stats reports journal health for logs and tests.
type Stats struct {
	Resolved    int   // units replayed at Open
	TornRecords int   // tail records dropped at the last valid checksum
	Segments    int   // sealed segments on disk
	Bytes       int64 // sealed journal bytes
	AppendErrs  int   // failed seal attempts (records kept pending)
}

// Journal is a durable, append-only record of unit outcomes. Safe for
// concurrent use by the worker pool.
type Journal struct {
	fsys  FS
	dir   string
	label string // metrics label: the cleaned journal directory
	fp    uint64
	opts  Options

	mu       sync.Mutex
	state    map[Key]Record
	pending  []byte // encoded records awaiting a seal
	pendingN int
	seq      int // next segment number
	stats    Stats
	closed   bool
}

// segName formats the sealed segment file name for sequence number n.
func segName(n int) string { return fmt.Sprintf("ckpt-%06d.seg", n) }

// segSeq parses a segment file name, reporting ok=false for other files
// (temp files, strays).
func segSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(name, "ckpt-%06d.seg", &n); err != nil {
		return 0, false
	}
	return n, true
}

// Open replays the journal in dir (creating it if absent) and returns a
// journal positioned to append. Completed units are available through
// Lookup immediately. A malformed journal returns ErrCorruptJournal
// (ErrFingerprintMismatch for a config change) and no journal: the
// caller decides between aborting and Reset + cold start.
func Open(fsys FS, dir string, fp Fingerprint, opts Options) (*Journal, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("checkpoint: create journal dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list journal dir: %w", err)
	}
	var seqs []int
	for _, name := range names {
		if n, ok := segSeq(name); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)

	j := &Journal{
		fsys: fsys, dir: dir, label: filepath.Clean(dir), fp: fp.hash(), opts: opts.withDefaults(),
		state: make(map[Key]Record),
	}
	for i, n := range seqs {
		path := filepath.Join(dir, segName(n))
		b, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
		}
		recs, torn, err := decodeSegment(b, j.fp, i == len(seqs)-1)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, segName(n))
		}
		for _, rec := range recs {
			j.state[rec.Key] = rec
		}
		j.stats.TornRecords += torn
		j.stats.Segments++
		j.stats.Bytes += int64(len(b))
		j.seq = n + 1
	}
	j.stats.Resolved = len(j.state)
	journalBytes.Set(float64(j.stats.Bytes), j.label)
	return j, nil
}

// Label is the journal's metrics label (its cleaned directory path), the
// `journal` label value of the per-journal gauges.
func (j *Journal) Label() string {
	if j == nil {
		return ""
	}
	return j.label
}

// SetResumeSkipRatio publishes the fraction of this journal's units a
// resumed run restored instead of recomputing, as the per-journal series
// lvf2_ckpt_resume_skip_ratio{journal=...}. A process that resumes
// several journals (Table 1 + Table 2 drivers, a coordinator) reports
// each ratio independently.
func (j *Journal) SetResumeSkipRatio(restored, total int) {
	if j == nil || total <= 0 {
		return
	}
	resumeSkipRatio.Set(float64(restored)/float64(total), j.label)
}

// ReplayRecords decodes every sealed record in dir in append order,
// without collapsing later records over earlier ones the way Open does.
// It is the audit view of a journal: tests (and the distributed chaos
// suite) use it to assert invariants over the full append history —
// e.g. that no unit was ever journaled terminal twice. A torn tail in
// the newest segment is tolerated exactly as in Open.
func ReplayRecords(fsys FS, dir string, fp Fingerprint) ([]Record, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list journal dir: %w", err)
	}
	var seqs []int
	for _, name := range names {
		if n, ok := segSeq(name); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Ints(seqs)
	var out []Record
	h := fp.hash()
	for i, n := range seqs {
		path := filepath.Join(dir, segName(n))
		b, err := fsys.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
		}
		recs, _, err := decodeSegment(b, h, i == len(seqs)-1)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, segName(n))
		}
		out = append(out, recs...)
	}
	return out, nil
}

// OpenRun opens the journal of one command-line run: a fresh run
// (resume false) resets dir first, a resumed run replays it. A journal
// that fails with ErrCorruptJournal, a config change included, is
// reported on warn as "<prog>: <error> — starting cold", reset, and
// reopened empty.
func OpenRun(fsys FS, dir string, fp Fingerprint, resume bool, warn io.Writer, prog string) (*Journal, error) {
	if !resume {
		if err := Reset(fsys, dir); err != nil {
			return nil, fmt.Errorf("clear checkpoint dir: %w", err)
		}
	}
	j, err := Open(fsys, dir, fp, Options{})
	if errors.Is(err, ErrCorruptJournal) {
		fmt.Fprintf(warn, "%s: %v — starting cold\n", prog, err)
		if rerr := Reset(fsys, dir); rerr != nil {
			return nil, fmt.Errorf("clear corrupt journal: %w", rerr)
		}
		j, err = Open(fsys, dir, fp, Options{})
	}
	return j, err
}

// Reset removes every sealed segment in dir, so the next Open starts
// cold. Used after ErrCorruptJournal and by the CLIs' fresh (non
// -resume) runs.
func Reset(fsys FS, dir string) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, name := range names {
		if _, ok := segSeq(name); ok {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Lookup returns the journaled record of a unit.
func (j *Journal) Lookup(k Key) (Record, bool) {
	if j == nil {
		return Record{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.state[k]
	return rec, ok
}

// Terminal reports whether unit k is journaled; every status is
// terminal.
func (j *Journal) Terminal(k Key) bool {
	_, ok := j.Lookup(k)
	return ok
}

// Records returns a snapshot of every journaled record (sealed and
// pending), in no particular order.
func (j *Journal) Records() []Record {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, 0, len(j.state))
	for _, rec := range j.state {
		out = append(out, rec)
	}
	return out
}

// Stats returns a snapshot of the journal counters.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Done journals a completed unit with its serialised result.
func (j *Journal) Done(k Key, payload []byte) error {
	return j.append(Record{Key: k, Status: StatusDone, Payload: payload})
}

// Quarantined journals a poison unit together with the degraded
// emission that stands in for it (rung = the salvage rung that produced
// payload).
func (j *Journal) Quarantined(k Key, rung, note string, payload []byte) error {
	return j.append(Record{Key: k, Status: StatusQuarantined, Rung: rung, Note: note, Payload: payload})
}

func (j *Journal) append(rec Record) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("checkpoint: journal closed")
	}
	j.state[rec.Key] = rec
	j.pending = appendRecord(j.pending, rec)
	j.pendingN++
	if j.pendingN >= j.opts.FlushEvery {
		return j.flushLocked()
	}
	return nil
}

// Flush seals the pending records into a new segment (write, fsync,
// rename). On failure the records stay pending and are retried by the
// next Flush/Close; the error is also counted in Stats.AppendErrs.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

// Close seals any pending records and bars further appends.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.flushLocked()
	j.closed = true
	return err
}

func (j *Journal) flushLocked() error {
	if j.pendingN == 0 {
		return nil
	}
	data := make([]byte, 0, segHeaderLen+len(j.pending))
	data = append(data, journalMagic...)
	data = binary.LittleEndian.AppendUint32(data, JournalVersion)
	data = binary.LittleEndian.AppendUint64(data, j.fp)
	data = append(data, j.pending...)

	if err := modelcache.WriteFileAtomic(j.fsys, filepath.Join(j.dir, segName(j.seq)), data); err != nil {
		j.stats.AppendErrs++
		return fmt.Errorf("checkpoint: seal segment %d: %w", j.seq, err)
	}
	j.seq++
	j.pending = j.pending[:0]
	j.pendingN = 0
	j.stats.Segments++
	j.stats.Bytes += int64(len(data))
	journalBytes.Set(float64(j.stats.Bytes), j.label)
	return nil
}

// -------------------------------------------------------- wire format

// appendRecord encodes rec as one length-prefixed, CRC-checksummed
// record.
func appendRecord(b []byte, rec Record) []byte {
	body := make([]byte, 0, 64+len(rec.Payload))
	body = append(body, byte(rec.Status))
	for _, s := range [...]string{rec.Key.Cell, rec.Key.Pin, rec.Key.Arc, rec.Key.Kind, rec.Rung, rec.Note} {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(s)))
		body = append(body, s...)
	}
	body = binary.LittleEndian.AppendUint32(body, uint32(rec.Key.Slew))
	body = binary.LittleEndian.AppendUint32(body, uint32(rec.Key.Load))
	body = append(body, rec.Payload...)

	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	return append(b, body...)
}

// decodeSegment replays one sealed segment. In the last segment a torn
// tail — truncated length/CRC header, a length past EOF, or a checksum
// mismatch — truncates the replay at the last valid record and reports
// how many records were dropped; anywhere else it is corruption. A
// record whose CRC verifies but whose body does not parse is corruption
// regardless of position: the checksum says those bytes are exactly
// what the writer sealed, so the format itself is not trustworthy.
func decodeSegment(b []byte, fp uint64, last bool) (recs []Record, torn int, err error) {
	if len(b) < segHeaderLen {
		if last {
			return nil, 1, nil // a segment torn before its header holds nothing
		}
		return nil, 0, badJournal("segment truncated at %d bytes", len(b))
	}
	if string(b[:len(journalMagic)]) != journalMagic {
		return nil, 0, badJournal("bad magic %q", b[:len(journalMagic)])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != JournalVersion {
		return nil, 0, badJournal("unsupported version %d (this build reads %d)", v, JournalVersion)
	}
	if got := binary.LittleEndian.Uint64(b[12:]); got != fp {
		return nil, 0, ErrFingerprintMismatch
	}
	off := segHeaderLen
	for off < len(b) {
		if len(b)-off < 8 {
			return torn2(recs, last, badJournal("torn record header at offset %d", off))
		}
		blen := int(binary.LittleEndian.Uint32(b[off:]))
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if blen > maxRecordLen {
			return nil, 0, badJournal("record length %d exceeds cap %d", blen, maxRecordLen)
		}
		if len(b)-off-8 < blen {
			return torn2(recs, last, badJournal("torn record body at offset %d (want %d bytes, have %d)", off, blen, len(b)-off-8))
		}
		body := b[off+8 : off+8+blen]
		if crc32.ChecksumIEEE(body) != sum {
			return torn2(recs, last, badJournal("record checksum mismatch at offset %d", off))
		}
		rec, derr := decodeRecordBody(body)
		if derr != nil {
			return nil, 0, derr
		}
		recs = append(recs, rec)
		off += 8 + blen
	}
	return recs, 0, nil
}

// torn2 resolves a mid-decode failure: tolerated truncation in the last
// segment, corruption elsewhere.
func torn2(recs []Record, last bool, err error) ([]Record, int, error) {
	if last {
		return recs, 1, nil
	}
	return nil, 0, err
}

func decodeRecordBody(body []byte) (Record, error) {
	r := recReader{buf: body}
	var rec Record
	st, err := r.u8()
	if err != nil {
		return rec, err
	}
	rec.Status = Status(st)
	if rec.Status < StatusDone || rec.Status > StatusQuarantined {
		return rec, badJournal("unknown record status %d", st)
	}
	for _, dst := range [...]*string{&rec.Key.Cell, &rec.Key.Pin, &rec.Key.Arc, &rec.Key.Kind, &rec.Rung, &rec.Note} {
		if *dst, err = r.string(); err != nil {
			return rec, err
		}
	}
	var slew, load uint32
	for _, dst := range [...]*uint32{&slew, &load} {
		if *dst, err = r.u32(); err != nil {
			return rec, err
		}
	}
	rec.Key.Slew, rec.Key.Load = int(slew), int(load)
	if r.rem() > 0 {
		rec.Payload = append([]byte(nil), r.buf[r.off:]...)
	}
	return rec, nil
}

// recReader is a bounds-checked cursor over one record body.
type recReader struct {
	buf []byte
	off int
}

func (r *recReader) rem() int { return len(r.buf) - r.off }

func (r *recReader) take(n int) ([]byte, error) {
	if n < 0 || r.rem() < n {
		return nil, badJournal("truncated record body (want %d bytes, have %d)", n, r.rem())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *recReader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *recReader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *recReader) string() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > maxRecordLen {
		return "", badJournal("string length %d exceeds cap", n)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
