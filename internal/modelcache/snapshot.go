// Snapshot persistence for the fitted-model LRU. A restart of the
// daemon used to discard every fitted model — a ~147× warm/cold latency
// gap per BENCH_server.json — so the cache can serialise its model LRU
// to a versioned, checksummed binary snapshot and restore it on boot.
//
// Format (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "LVF2SNAP"
//	8       4     format version (currently 1)
//	12      4     entry count
//	16      ...   entries, oldest → newest recency order
//	end-32  32    SHA-256 of every preceding byte
//
// Each entry is the full ModelKey (five length-prefixed strings, the
// slew/load operating point and the model kind) followed by the seven
// core.Model parameters as raw IEEE-754 bits, so a restored model is
// bit-identical to the one snapshotted — the same property the cache
// already guarantees between cached and fresh fits.
//
// Restore is all-or-nothing and never trusts the bytes: a wrong magic,
// unsupported version, truncation, checksum mismatch or any entry that
// fails model validation yields a typed error (errors.Is ErrBadSnapshot)
// and leaves the cache untouched, so a corrupt snapshot degrades to a
// cold start instead of poisoning the serving path.
package modelcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"lvf2/internal/core"
	"lvf2/internal/fit"
)

// snapshotMagic identifies a model-cache snapshot file.
const snapshotMagic = "LVF2SNAP"

// SnapshotVersion is the current snapshot format version. Decoders
// reject any other version: the format carries fitted parameters, and a
// silent cross-version reinterpretation would serve wrong timing.
const SnapshotVersion = 1

// maxSnapshotString bounds each encoded key string so a hostile length
// prefix cannot drive a huge allocation before the checksum is verified.
const maxSnapshotString = 1 << 16

// ErrBadSnapshot is the base error of every snapshot decode failure.
// Use errors.Is to distinguish "snapshot invalid, boot cold" from I/O
// errors such as a missing file.
var ErrBadSnapshot = errors.New("modelcache: invalid snapshot")

func badSnapshot(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// SnapshotEntry is one decoded (key, model) pair.
type SnapshotEntry struct {
	Key   ModelKey
	Model core.Model
}

// SnapshotModels serialises the model LRU in oldest→newest recency
// order (so a restore reproduces the eviction order) and appends the
// checksum trailer. Libraries are not snapshotted: their sources live on
// disk and re-parse on demand.
func (c *Cache) SnapshotModels() []byte {
	return c.SnapshotModelsFiltered(nil)
}

// SnapshotModelsFiltered serialises the subset of the model LRU whose
// keys satisfy keep (nil keeps everything), preserving oldest→newest
// recency order among the kept entries. The replicated serving layer
// uses it to export exactly the slice of warm state a restarting peer
// owns under the consistent-hash ring, without shipping the rest of the
// cache over the wire.
func (c *Cache) SnapshotModelsFiltered(keep func(ModelKey) bool) []byte {
	b, _ := c.SnapshotModelsCapped(keep, 0)
	return b
}

// SnapshotModelsCapped is SnapshotModelsFiltered with a byte budget:
// when the full export would exceed maxBytes (0 = unlimited), the
// oldest entries are dropped first so the newest — the ones most likely
// to be re-queried — survive the cut. The second result reports whether
// anything was dropped. The 48-byte header+trailer envelope is always
// emitted, so the effective floor for maxBytes is 48.
func (c *Cache) SnapshotModelsCapped(keep func(ModelKey) bool, maxBytes int) ([]byte, bool) {
	c.mu.Lock()
	entries := make([]SnapshotEntry, 0, c.models.len())
	for el := c.models.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[ModelKey, core.Model])
		if keep != nil && !keep(e.key) {
			continue
		}
		entries = append(entries, SnapshotEntry{Key: e.key, Model: e.val})
	}
	c.mu.Unlock()
	truncated := false
	if maxBytes > 0 {
		budget := maxBytes - snapshotOverhead
		// entries is oldest→newest; walk from the newest end accumulating
		// encoded sizes and cut off the oldest prefix that no longer fits.
		total, cut := 0, len(entries)
		for i := len(entries) - 1; i >= 0; i-- {
			sz := encodedEntrySize(entries[i])
			if total+sz > budget {
				break
			}
			total += sz
			cut = i
		}
		if cut > 0 {
			truncated = true
			entries = entries[cut:]
		}
	}
	return EncodeSnapshot(entries), truncated
}

// snapshotOverhead is the byte cost of the snapshot envelope: the
// 16-byte header plus the SHA-256 trailer.
const snapshotOverhead = 16 + sha256.Size

// encodedEntrySize returns the exact wire size of one entry.
func encodedEntrySize(e SnapshotEntry) int {
	return 5*4 + len(e.Key.LibHash) + len(e.Key.Cell) + len(e.Key.OutputPin) +
		len(e.Key.RelatedPin) + len(e.Key.Base) + 2*8 + 4 + 7*8
}

// EncodeSnapshot renders entries in the snapshot wire format.
func EncodeSnapshot(entries []SnapshotEntry) []byte {
	b := make([]byte, 0, 16+len(entries)*160)
	b = append(b, snapshotMagic...)
	b = binary.LittleEndian.AppendUint32(b, SnapshotVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = appendSnapshotEntry(b, e)
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

func appendSnapshotEntry(b []byte, e SnapshotEntry) []byte {
	for _, s := range [...]string{e.Key.LibHash, e.Key.Cell, e.Key.OutputPin, e.Key.RelatedPin, e.Key.Base} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Key.Slew))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Key.Load))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.Key.Kind))
	for _, f := range modelFields(e.Model) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// DigestModels returns how many cached models satisfy keep (nil keeps
// everything) and an order-independent digest over their full
// (key, model-bits) wire encoding: the XOR of each entry's FNV-64a
// hash. Two caches hold bit-identical model sets for the filtered keys
// iff count and digest agree — the cheap comparison the anti-entropy
// loop exchanges before deciding to ship a snapshot slice.
func (c *Cache) DigestModels(keep func(ModelKey) bool) (int, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var (
		n      int
		digest uint64
		buf    []byte
	)
	for el := c.models.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*lruEntry[ModelKey, core.Model])
		if keep != nil && !keep(e.key) {
			continue
		}
		buf = appendSnapshotEntry(buf[:0], SnapshotEntry{Key: e.key, Model: e.val})
		h := fnv.New64a()
		h.Write(buf)
		digest ^= h.Sum64()
		n++
	}
	return n, digest
}

func modelFields(m core.Model) [7]float64 {
	return [7]float64{
		m.Lambda,
		m.Theta1.Mean, m.Theta1.Sigma, m.Theta1.Skew,
		m.Theta2.Mean, m.Theta2.Sigma, m.Theta2.Skew,
	}
}

// DecodeSnapshot parses and validates a snapshot. Arbitrary input bytes
// never panic: every malformation maps to an ErrBadSnapshot-wrapped
// error (FuzzSnapshotDecode pins this).
func DecodeSnapshot(b []byte) ([]SnapshotEntry, error) {
	const headerLen = len(snapshotMagic) + 4 + 4
	if len(b) < headerLen+sha256.Size {
		return nil, badSnapshot("truncated: %d bytes", len(b))
	}
	if string(b[:len(snapshotMagic)]) != snapshotMagic {
		return nil, badSnapshot("bad magic %q", b[:len(snapshotMagic)])
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != SnapshotVersion {
		return nil, badSnapshot("unsupported version %d (this build reads %d)", v, SnapshotVersion)
	}
	payload, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(trailer) {
		return nil, badSnapshot("checksum mismatch")
	}
	count := binary.LittleEndian.Uint32(b[12:])
	r := &byteReader{buf: payload[headerLen:]}
	// Every entry occupies ≥ the fixed field bytes, so an absurd count is
	// rejected before any allocation proportional to it.
	const minEntry = 5*4 + 2*8 + 4 + 7*8
	if uint64(count)*minEntry > uint64(len(r.buf)) {
		return nil, badSnapshot("entry count %d exceeds payload", count)
	}
	entries := make([]SnapshotEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		e, err := decodeEntry(r)
		if err != nil {
			return nil, fmt.Errorf("%w (entry %d)", err, i)
		}
		entries = append(entries, e)
	}
	if r.rem() != 0 {
		return nil, badSnapshot("%d trailing payload bytes after %d entries", r.rem(), count)
	}
	return entries, nil
}

func decodeEntry(r *byteReader) (SnapshotEntry, error) {
	var e SnapshotEntry
	for _, dst := range [...]*string{&e.Key.LibHash, &e.Key.Cell, &e.Key.OutputPin, &e.Key.RelatedPin, &e.Key.Base} {
		s, err := r.string()
		if err != nil {
			return e, err
		}
		*dst = s
	}
	var err error
	if e.Key.Slew, err = r.float64(); err != nil {
		return e, err
	}
	if e.Key.Load, err = r.float64(); err != nil {
		return e, err
	}
	kind, err := r.uint32()
	if err != nil {
		return e, err
	}
	e.Key.Kind = fit.Model(kind)
	var fields [7]float64
	for i := range fields {
		if fields[i], err = r.float64(); err != nil {
			return e, err
		}
	}
	e.Model = core.Model{
		Lambda: fields[0],
		Theta1: core.Theta{Mean: fields[1], Sigma: fields[2], Skew: fields[3]},
		Theta2: core.Theta{Mean: fields[4], Sigma: fields[5], Skew: fields[6]},
	}
	return e, validateEntry(e)
}

// validateEntry vets one decoded entry the way the serving path would:
// a known model kind, a finite operating point and a Validate-clean,
// finite model. The checksum catches corruption; this catches a
// well-checksummed snapshot written by a buggy or hostile producer.
func validateEntry(e SnapshotEntry) error {
	if e.Key.Kind < fit.ModelLVF || e.Key.Kind > fit.ModelGaussian {
		return badSnapshot("unknown model kind %d", e.Key.Kind)
	}
	if e.Key.LibHash == "" {
		return badSnapshot("empty library hash")
	}
	if !isFinite(e.Key.Slew) || !isFinite(e.Key.Load) {
		return badSnapshot("non-finite operating point (%v, %v)", e.Key.Slew, e.Key.Load)
	}
	for _, f := range modelFields(e.Model) {
		if !isFinite(f) {
			return badSnapshot("non-finite model parameter %v", f)
		}
	}
	if err := e.Model.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// RestoreModels decodes a snapshot and installs every entry into the
// model LRU (oldest first, reproducing the snapshotted recency order),
// returning the number restored. On any decode or validation error the
// cache is left untouched. Restored entries are charged to the byte
// budget and may evict under it, exactly like fresh fits.
func (c *Cache) RestoreModels(b []byte) (int, error) {
	entries, err := DecodeSnapshot(b)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		c.insertModel(e.Key, e.Model)
	}
	return len(entries), nil
}

// ------------------------------------------------------------ file I/O

// File is the writable handle WriteFileAtomic needs: sequential writes,
// a durability barrier and a name for the rename step.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations of snapshot persistence so the
// chaos harness can inject disk faults (short writes, EIO, corruption)
// underneath the real save/restore code paths.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadFile(path string) ([]byte, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (OSFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(path string) error                     { return os.Remove(path) }
func (OSFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }

// WriteFileAtomic writes data to path atomically: a temp file in the
// same directory, full write, fsync, close, rename. A reader therefore
// sees either the previous file or the complete new one — never a torn
// write. Any failure removes the temp file and reports the error; the
// previous file (if any) survives. Through OSFS the file gets
// os.CreateTemp's mode, 0600.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	fail := func(step string, err error) error {
		return fmt.Errorf("modelcache: atomic write %s: %s: %w", path, step, err)
	}
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fail("temp", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	n, err := f.Write(data)
	if err == nil && n != len(data) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return cleanup(fail("write", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fail("fsync", err))
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fail("close", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fail("rename", err)
	}
	return nil
}

// SaveSnapshot atomically persists the current model LRU to path.
func (c *Cache) SaveSnapshot(fsys FS, path string) error {
	return WriteFileAtomic(fsys, path, c.SnapshotModels())
}

// RestoreSnapshot loads path and installs its entries, returning the
// restored count. A missing file surfaces as the FS's not-exist error
// (cold start by decision); malformed content as ErrBadSnapshot (cold
// start by necessity).
func (c *Cache) RestoreSnapshot(fsys FS, path string) (int, error) {
	b, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return c.RestoreModels(b)
}

// ---------------------------------------------------------- byteReader

// byteReader is a bounds-checked cursor over the snapshot payload.
type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) rem() int { return len(r.buf) - r.off }

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || r.rem() < n {
		return nil, badSnapshot("truncated entry data (want %d bytes, have %d)", n, r.rem())
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) uint32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *byteReader) float64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *byteReader) string() (string, error) {
	n, err := r.uint32()
	if err != nil {
		return "", err
	}
	if n > maxSnapshotString {
		return "", badSnapshot("string length %d exceeds cap %d", n, maxSnapshotString)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}
