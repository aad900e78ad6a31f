package chaostest

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lvf2/internal/faultinject"
)

// setFlag sets a chaos flag for the rest of the test.
func setFlag(t *testing.T, name, value string) {
	t.Helper()
	old := flag.Lookup(name).Value.String()
	if err := flag.Set(name, value); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set(name, old) })
}

func TestSeeds(t *testing.T) {
	s := Suite{Base: 4000, Stride: 13, Count: 2}
	setFlag(t, "chaos.seed", "0")
	setFlag(t, "chaos.seeds", "0")
	if got, want := s.seeds(), []uint64{4000, 4013}; !reflect.DeepEqual(got, want) {
		t.Errorf("default seeds = %v, want %v", got, want)
	}
	setFlag(t, "chaos.seeds", "4")
	if got, want := s.seeds(), []uint64{4000, 4013, 4026, 4039}; !reflect.DeepEqual(got, want) {
		t.Errorf("-chaos.seeds 4: seeds = %v, want %v", got, want)
	}
	setFlag(t, "chaos.seed", "4017")
	if got, want := s.seeds(), []uint64{4017}; !reflect.DeepEqual(got, want) {
		t.Errorf("-chaos.seed 4017: seeds = %v, want %v", got, want)
	}
}

// record fills a record the way a suite does, from several goroutines.
func record(r *Record) {
	fsys := faultinject.NewMemFS()
	fsys.WriteFile("ckpt/ckpt-000000.seg", []byte("segment"))
	r.Attach(fsys)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Step("kill", "worker", i)
			fmt.Fprintf(r.Log(), "worker %d exited\n", i)
		}()
	}
	wg.Wait()
}

func TestFailingSeedArtifact(t *testing.T) {
	root := t.TempDir()
	r := &Record{Seed: 4013, test: "TestChaosX"}
	record(r)
	dir, err := r.write(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(root, "TestChaosX", "seed-4013"); dir != want {
		t.Fatalf("artifact dir = %s, want %s", dir, want)
	}
	b, err := os.ReadFile(filepath.Join(dir, "script.json"))
	if err != nil {
		t.Fatal(err)
	}
	var script struct {
		Test   string
		Seed   uint64
		Replay string
		Steps  []step
	}
	if err := json.Unmarshal(b, &script); err != nil {
		t.Fatalf("script.json: %v\n%s", err, b)
	}
	if script.Test != "TestChaosX" || script.Seed != 4013 || len(script.Steps) != 4 {
		t.Errorf("script = %+v, want test TestChaosX, seed 4013, 4 steps", script)
	}
	if want := "go test -race -run '^TestChaosX$' ./internal/chaostest -chaos.seed=4013"; script.Replay != want {
		t.Errorf("replay = %q, want %q", script.Replay, want)
	}
	for _, s := range script.Steps {
		if s.Op != "kill" || !strings.HasPrefix(s.Note, "worker ") {
			t.Errorf("step %+v, want op kill with note \"worker <i>\"", s)
		}
	}
	if log, err := os.ReadFile(filepath.Join(dir, "log.txt")); err != nil || strings.Count(string(log), "exited\n") != 4 {
		t.Errorf("log.txt = %q, %v; want 4 lines", log, err)
	}
	if seg, err := os.ReadFile(filepath.Join(dir, "files", "ckpt", "ckpt-000000.seg")); err != nil || string(seg) != "segment" {
		t.Errorf("attached segment = %q, %v", seg, err)
	}
}

func TestPassingSeedWritesNothing(t *testing.T) {
	root := t.TempDir()
	t.Setenv("CHAOS_ARTIFACT_DIR", root)
	setFlag(t, "chaos.seed", "0")
	setFlag(t, "chaos.seeds", "0")
	var ran []uint64
	Suite{Base: 7, Stride: 2, Count: 2}.Run(t, func(t *testing.T, r *Record) {
		ran = append(ran, r.Seed)
		record(r)
	})
	if want := []uint64{7, 9}; !reflect.DeepEqual(ran, want) {
		t.Errorf("ran seeds %v, want %v", ran, want)
	}
	if entries, err := os.ReadDir(root); err != nil || len(entries) != 0 {
		t.Errorf("passing seeds wrote %d artifact entries (%v), want none", len(entries), err)
	}
}

func TestDiff(t *testing.T) {
	for _, c := range []struct {
		got, want, diff string
	}{
		{"a\nb\n", "a\nb\n", ""},
		{"a\nb\nc", "a\nB\nc", "first difference at line 2 (5 vs 5 bytes)\n got: b\nwant: B"},
		{"a\n", "a\nb", "first difference at line 2 (2 vs 3 bytes)\n got: \nwant: b"},
		{"a", "a\n", "first difference at line 2 (1 vs 2 bytes)\n got: <end of input>\nwant: "},
	} {
		if d := Diff([]byte(c.got), []byte(c.want)); d != c.diff {
			t.Errorf("Diff(%q, %q) = %q, want %q", c.got, c.want, d, c.diff)
		}
	}
}
