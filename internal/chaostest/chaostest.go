// Package chaostest is the harness the seeded chaos suites share: one
// -chaos.seeds/-chaos.seed flag pair, the expansion of a suite's seed
// schedule into seed=<N> subtests, a per-seed record of script steps,
// log lines and attached files that a failing seed writes out with the
// command that replays it, and a byte diff that names the first
// differing line. Only _test.go files import it.
package chaostest

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	seedsFlag = flag.Int("chaos.seeds", 0, "seeds each chaos suite replays (0 = the suite's own count)")
	seedFlag  = flag.Uint64("chaos.seed", 0, "replay only this chaos seed (0 = the suite's seed schedule)")
)

// Suite is a chaos suite's seed schedule: Base, Base+Stride, … for
// Count seeds unless -chaos.seeds sets another count.
type Suite struct {
	Base, Stride uint64
	Count        int
}

// seeds returns the seeds a run replays: only -chaos.seed when it is
// set, else the schedule's first -chaos.seeds (or Count) seeds.
func (s Suite) seeds() []uint64 {
	if *seedFlag != 0 {
		return []uint64{*seedFlag}
	}
	n := *seedsFlag
	if n <= 0 {
		n = s.Count
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = s.Base + s.Stride*uint64(i)
	}
	return seeds
}

// Run runs script once per seed, each as the subtest "seed=<N>". A
// seed that fails writes its record under $CHAOS_ARTIFACT_DIR (the
// temp dir when unset) as <Test>/seed-<N>/ and logs the directory and
// the command that replays it.
func (s Suite) Run(t *testing.T, script func(t *testing.T, r *Record)) {
	for _, seed := range s.seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(st *testing.T) {
			r := &Record{Seed: seed, test: t.Name(), start: time.Now()}
			defer r.report(st)
			script(st, r)
		})
	}
}

// FS is a set of files a failing seed writes out, such as the in-memory
// file system a checkpoint journal lives on.
type FS interface {
	Paths() []string
	ReadFile(path string) ([]byte, error)
}

// step is one event of a seed's script, stamped with the milliseconds
// since the seed started.
type step struct {
	AtMs int64  `json:"at_ms"`
	Op   string `json:"op"`
	Note string `json:"note,omitempty"`
}

// Record is one seed's account of its run: the script steps it took, a
// log, and the file sets attached to its failure artifact. It is safe
// for concurrent use.
type Record struct {
	Seed uint64

	test  string
	start time.Time

	mu    sync.Mutex
	steps []step
	log   bytes.Buffer
	files []FS
}

// Step records one script event; args are joined with spaces into its
// note.
func (r *Record) Step(op string, args ...any) {
	note := strings.TrimSuffix(fmt.Sprintln(args...), "\n")
	r.mu.Lock()
	defer r.mu.Unlock()
	r.steps = append(r.steps, step{AtMs: time.Since(r.start).Milliseconds(), Op: op, Note: note})
}

// Log returns a writer appending to the seed's log.
func (r *Record) Log() io.Writer { return logWriter{r} }

type logWriter struct{ r *Record }

func (w logWriter) Write(p []byte) (int, error) {
	w.r.mu.Lock()
	defer w.r.mu.Unlock()
	return w.r.log.Write(p)
}

// Attach adds every file of fsys, read when the seed fails, to the
// failure artifact.
func (r *Record) Attach(fsys FS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files = append(r.files, fsys)
}

// replay is the command that reruns this seed alone.
func (r *Record) replay() string {
	return fmt.Sprintf("go test -race -run '^%s$' %s -chaos.seed=%d", r.test, packageArg(), r.Seed)
}

func (r *Record) report(t *testing.T) {
	if !t.Failed() {
		return
	}
	root := os.Getenv("CHAOS_ARTIFACT_DIR")
	if root == "" {
		root = os.TempDir()
	}
	dir, err := r.write(root)
	if err != nil {
		t.Logf("chaos: failure artifact not written: %v", err)
	} else {
		t.Logf("chaos: failure artifact written to %s", dir)
	}
	t.Logf("chaos: replay with: %s", r.replay())
}

// write stores the record under root/<Test>/seed-<N>/: script.json
// (seed, replay command, steps), log.txt when anything was logged, and
// each attached file at its own path below files/.
func (r *Record) write(root string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	script, err := json.MarshalIndent(struct {
		Test   string `json:"test"`
		Seed   uint64 `json:"seed"`
		Replay string `json:"replay"`
		Steps  []step `json:"steps"`
	}{r.test, r.Seed, r.replay(), r.steps}, "", "  ")
	if err != nil {
		return "", err
	}
	out := map[string][]byte{"script.json": append(script, '\n')}
	if r.log.Len() > 0 {
		out["log.txt"] = r.log.Bytes()
	}
	for _, fsys := range r.files {
		for _, p := range fsys.Paths() {
			if b, err := fsys.ReadFile(p); err == nil {
				out[filepath.Join("files", filepath.Clean("/"+p))] = b
			}
		}
	}
	dir := filepath.Join(root, r.test, fmt.Sprintf("seed-%d", r.Seed))
	for name, b := range out {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return "", err
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// packageArg names the package under test the way go test takes it:
// the working directory, where go test runs a package's tests,
// relative to the module root.
func packageArg() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for root := wd; filepath.Dir(root) != root; root = filepath.Dir(root) {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			rel, err := filepath.Rel(root, wd)
			if err != nil || rel == "." {
				return "."
			}
			return "./" + filepath.ToSlash(rel)
		}
	}
	return "."
}

// Diff describes how got differs from want: "" when they are equal,
// else the number of the first line that differs, both versions of it
// and both sizes.
func Diff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(g) && i < len(w) && bytes.Equal(g[i], w[i]) {
		i++
	}
	return fmt.Sprintf("first difference at line %d (%d vs %d bytes)\n got: %s\nwant: %s",
		i+1, len(got), len(want), lineAt(g, i), lineAt(w, i))
}

func lineAt(lines [][]byte, i int) string {
	if i >= len(lines) {
		return "<end of input>"
	}
	return string(lines[i])
}
