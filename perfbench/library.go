package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
	"lvf2/internal/modelcache"
)

// benchCells are the cell types of both libraries: enough for the chain,
// buftree and rca16 netlists and for process-space yield estimates.
var benchCells = []string{"INV", "BUFF", "NAND2", "NOR2"}

func cellTypes() ([]cells.CellType, error) {
	var types []cells.CellType
	for _, n := range benchCells {
		ct, ok := cells.CellByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown cell type %s", n)
		}
		types = append(types, ct)
	}
	return types, nil
}

// servedConfig is the small fixed library the daemon workloads serve:
// one arc per input pin, 400 samples on a 2×2 subsampled grid.
func servedConfig() (libbuild.Config, error) {
	types, err := cellTypes()
	if err != nil {
		return libbuild.Config{}, err
	}
	return libbuild.Config{Types: types, ArcsPer: 1, LVF2: true,
		Char: cells.CharConfig{Samples: 400, Seed: 42, GridStride: 4}}, nil
}

// charlibConfig is the 256-unit warm-start build of the charlib
// workload (the BenchmarkCharLibWarm configuration) at the default
// worker count.
func charlibConfig() (libbuild.Config, error) {
	types, err := cellTypes()
	if err != nil {
		return libbuild.Config{}, err
	}
	return libbuild.Config{Types: types, ArcsPer: 2, LVF2: true,
		Char: cells.CharConfig{Samples: 1500, Seed: 42, GridStride: 2}}, nil
}

// emitLibrary renders a built library group as .lib text.
func emitLibrary(g *liberty.Group) ([]byte, error) {
	var buf bytes.Buffer
	if err := liberty.WriteLibrary(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseLibrary is the liberty.Parse + LoadLibrary pair the daemon runs
// on every library it loads.
func parseLibrary(text []byte) (*liberty.Library, error) {
	g, err := liberty.Parse(string(text))
	if err != nil {
		return nil, err
	}
	return liberty.LoadLibrary(g)
}

// servedLibrary is the built, emitted and parsed library of one set-up.
type servedLibrary struct {
	text    []byte
	lib     *liberty.Library
	parse   time.Duration
	buildMS float64
}

func buildServedLibrary(ctx context.Context) (*servedLibrary, error) {
	cfg, err := servedConfig()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g, _, err := libbuild.Build(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("build served library: %w", err)
	}
	text, err := emitLibrary(g)
	if err != nil {
		return nil, fmt.Errorf("emit served library: %w", err)
	}
	build := time.Since(t0)
	t1 := time.Now()
	lib, err := parseLibrary(text)
	if err != nil {
		return nil, fmt.Errorf("parse served library: %w", err)
	}
	return &servedLibrary{text: text, lib: lib, parse: time.Since(t1), buildMS: ms(build)}, nil
}

// ------------------------------------------------- checkpoint FS seam

// timingFS is the checkpoint.FS the charlib journal runs over: the real
// filesystem, with the time spent in each call, the bytes written and
// the fsyncs counted while the tracer is on.
type timingFS struct {
	checkpoint.OSFS
	tr    *tracer
	ns    atomic.Int64
	bytes atomic.Int64
	syncs atomic.Int64
}

func (f *timingFS) timed(start time.Time) {
	if f.tr.enabled() {
		f.ns.Add(int64(time.Since(start)))
	}
}

func (f *timingFS) CreateTemp(dir, pattern string) (modelcache.File, error) {
	t := time.Now()
	file, err := f.OSFS.CreateTemp(dir, pattern)
	f.timed(t)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

func (f *timingFS) Rename(oldpath, newpath string) error {
	t := time.Now()
	defer f.timed(t)
	return f.OSFS.Rename(oldpath, newpath)
}

func (f *timingFS) Remove(path string) error {
	t := time.Now()
	defer f.timed(t)
	return f.OSFS.Remove(path)
}

func (f *timingFS) ReadFile(path string) ([]byte, error) {
	t := time.Now()
	defer f.timed(t)
	return f.OSFS.ReadFile(path)
}

func (f *timingFS) MkdirAll(dir string) error {
	t := time.Now()
	defer f.timed(t)
	return f.OSFS.MkdirAll(dir)
}

func (f *timingFS) ReadDir(dir string) ([]string, error) {
	t := time.Now()
	defer f.timed(t)
	return f.OSFS.ReadDir(dir)
}

type timingFile struct {
	modelcache.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	f.fs.timed(t)
	if f.fs.tr.enabled() {
		f.fs.bytes.Add(int64(n))
	}
	return n, err
}

func (f *timingFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.timed(t)
	if f.fs.tr.enabled() {
		f.fs.syncs.Add(1)
	}
	return err
}

func (f *timingFile) Close() error {
	t := time.Now()
	defer f.fs.timed(t)
	return f.File.Close()
}
