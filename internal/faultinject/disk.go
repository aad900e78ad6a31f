package faultinject

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"lvf2/internal/mc"
	"lvf2/internal/modelcache"
)

// Disk-fault injection for the snapshot persistence path. MemFS is a
// minimal in-memory filesystem implementing modelcache.FS; FaultFS
// wraps any modelcache.FS with seeded probabilistic faults — short
// writes, EIO on write/sync/rename/read, and corrupt-on-read bit flips
// — so the chaos suite can exercise every failure branch of the atomic
// save and validated restore without touching a real disk.

// MemFS is an in-memory modelcache.FS. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
	seq   int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: map[string][]byte{}} }

func (m *MemFS) CreateTemp(dir, pattern string) (modelcache.File, error) {
	m.mu.Lock()
	m.seq++
	name := fmt.Sprintf("%s/%s.%d", dir, pattern, m.seq)
	m.files[name] = nil
	m.mu.Unlock()
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}

// WriteFile installs content directly (test setup, e.g. planting a
// corrupt snapshot).
func (m *MemFS) WriteFile(path string, b []byte) {
	m.mu.Lock()
	m.files[path] = append([]byte(nil), b...)
	m.mu.Unlock()
}

// MkdirAll is a no-op: MemFS paths are flat strings, so directories
// exist implicitly (mirrors how the journal only needs the dir for
// namespacing).
func (m *MemFS) MkdirAll(string) error { return nil }

// ReadDir lists the base names of files directly under dir, so MemFS
// satisfies checkpoint.FS and the chaos suite can replay journals
// purely in memory.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Paths returns every stored path, sorted (test helper: finding the
// newest journal segment to tear or corrupt).
func (m *MemFS) Paths() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for path := range m.files {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}

// Truncate shortens a stored file to n bytes (test helper: simulating a
// torn tail the OS left behind after a crash mid-write).
func (m *MemFS) Truncate(path string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.files[path]; ok && n >= 0 && n < len(b) {
		m.files[path] = b[:n]
	}
}

// FlipByte XORs one byte of a stored file (test helper: segment rot).
func (m *MemFS) FlipByte(path string, off int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.files[path]; ok && off >= 0 && off < len(b) {
		b[off] ^= 0x41
	}
}

type memFile struct {
	fs     *MemFS
	name   string
	closed bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(b []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	f.fs.files[f.name] = append(f.fs.files[f.name], b...)
	return len(b), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}

// DiskFaults is the per-operation fault plan of a FaultFS. Each field is
// an independent probability in [0, 1]; draws come from one seeded RNG,
// so a given (plan, seed, operation sequence) is fully deterministic.
type DiskFaults struct {
	// PWriteErr fails a File.Write with EIO.
	PWriteErr float64
	// PShortWrite truncates a File.Write (returns n < len(b), nil error —
	// the nastiest libc-realistic shape, which the saver must detect).
	PShortWrite float64
	// PSyncErr fails File.Sync with EIO.
	PSyncErr float64
	// PRenameErr fails Rename with EIO.
	PRenameErr float64
	// PReadErr fails ReadFile with EIO.
	PReadErr float64
	// PCorruptRead flips one byte of a successful ReadFile — the
	// stale/rotted-snapshot case the restore checksum must catch.
	PCorruptRead float64
}

// FaultFS wraps an inner modelcache.FS with the DiskFaults plan.
type FaultFS struct {
	inner modelcache.FS
	plan  DiskFaults

	mu  sync.Mutex
	rng *mc.RNG

	// Injected counts one fault per class, so tests can assert a chaos
	// run actually exercised the branch it claims to cover.
	injected struct {
		writeErr, shortWrite, syncErr, renameErr, readErr, corruptRead int
	}
}

// NewFaultFS wraps inner with the given plan and seed.
func NewFaultFS(inner modelcache.FS, plan DiskFaults, seed uint64) *FaultFS {
	return &FaultFS{inner: inner, plan: plan, rng: mc.NewRNG(seed | 1)}
}

// Injected reports how many faults fired, by class, as a stable string
// for logs and failure artefacts.
func (f *FaultFS) Injected() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.injected
	return fmt.Sprintf("writeErr=%d shortWrite=%d syncErr=%d renameErr=%d readErr=%d corruptRead=%d",
		i.writeErr, i.shortWrite, i.syncErr, i.renameErr, i.readErr, i.corruptRead)
}

// draw is one seeded Bernoulli trial.
func (f *FaultFS) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	f.mu.Lock()
	hit := f.rng.Float64() < p
	f.mu.Unlock()
	return hit
}

func eio(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: syscall.EIO}
}

func (f *FaultFS) CreateTemp(dir, pattern string) (modelcache.File, error) {
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.draw(f.plan.PRenameErr) {
		f.count(&f.injected.renameErr)
		return eio("rename", newpath)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error { return f.inner.Remove(path) }

// dirFS is the directory half of checkpoint.FS.
type dirFS interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]string, error)
}

// MkdirAll passes through when the inner FS supports directories (MemFS
// and checkpoint.OSFS both do); directory creation is not a fault class
// the journal distinguishes from an unwritable segment.
func (f *FaultFS) MkdirAll(dir string) error {
	if d, ok := f.inner.(dirFS); ok {
		return d.MkdirAll(dir)
	}
	return fmt.Errorf("faultinject: inner FS %T has no MkdirAll", f.inner)
}

// ReadDir passes through; segment *content* faults come from ReadFile.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if d, ok := f.inner.(dirFS); ok {
		return d.ReadDir(dir)
	}
	return nil, fmt.Errorf("faultinject: inner FS %T has no ReadDir", f.inner)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if f.draw(f.plan.PReadErr) {
		f.count(&f.injected.readErr)
		return nil, eio("read", path)
	}
	b, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) > 0 && f.draw(f.plan.PCorruptRead) {
		f.count(&f.injected.corruptRead)
		f.mu.Lock()
		i := f.rng.Intn(len(b))
		f.mu.Unlock()
		b[i] ^= 0x20
	}
	return b, nil
}

func (f *FaultFS) count(n *int) {
	f.mu.Lock()
	*n++
	f.mu.Unlock()
}

type faultFile struct {
	modelcache.File
	fs *FaultFS
}

func (f *faultFile) Write(b []byte) (int, error) {
	if f.fs.draw(f.fs.plan.PWriteErr) {
		f.fs.count(&f.fs.injected.writeErr)
		return 0, eio("write", f.Name())
	}
	if len(b) > 1 && f.fs.draw(f.fs.plan.PShortWrite) {
		f.fs.count(&f.fs.injected.shortWrite)
		n, err := f.File.Write(b[:len(b)/2])
		if err != nil {
			return n, err
		}
		return n, nil
	}
	return f.File.Write(b)
}

func (f *faultFile) Sync() error {
	if f.fs.draw(f.fs.plan.PSyncErr) {
		f.fs.count(&f.fs.injected.syncErr)
		return eio("sync", f.Name())
	}
	return f.File.Sync()
}
