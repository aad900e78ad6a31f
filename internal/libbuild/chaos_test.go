package libbuild

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"lvf2/internal/chaostest"
	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/liberty"
	"lvf2/internal/mc"
)

// Checkpoint chaos harness. Each seed expands deterministically into a
// kill-and-resume script: the build is killed at a random unit count,
// the journal is then (randomly) left intact, torn a few bytes short,
// or rotted with a byte flip, and the next round reopens it — taking
// the documented recovery path (torn tail tolerated; ErrCorruptJournal
// → Reset → cold start) — until a round runs to completion. Invariants:
//
//   - the final library is bit-identical to an uninterrupted build,
//   - a resumed round never refits a unit its journal had terminal,
//   - a rotten journal surfaces as ErrCorruptJournal, never a panic, a
//     crash or a silent partial resume.
//
// A failing seed's artifact carries the journal segments it resumed
// from (see chaostest).

// chaosGolden computes the uninterrupted reference bytes once per test
// binary (the build is deterministic, so every seed shares it).
var chaosGolden struct {
	once sync.Once
	lib  []byte
}

func TestChaosCheckpointResume(t *testing.T) {
	chaostest.Suite{Base: 4000, Stride: 13, Count: 2}.Run(t, runCkptChaosScript)
}

func runCkptChaosScript(t *testing.T, run *chaostest.Record) {
	chaosGolden.once.Do(func() {
		chaosGolden.lib, _ = buildBytes(t, context.Background(), testConfig())
	})
	golden := chaosGolden.lib

	fsys := faultinject.NewMemFS()
	run.Attach(fsys)
	rng := mc.NewRNG(run.Seed)

	const maxRounds = 6
	for round := 0; round < maxRounds; round++ {
		cfg := testConfig()
		j, err := checkpoint.Open(fsys, "ckpt", cfg.Fingerprint(), checkpoint.Options{FlushEvery: 4})
		if errors.Is(err, checkpoint.ErrCorruptJournal) {
			// The documented recovery: typed error, reset, cold start.
			run.Step("reset", err)
			if err := checkpoint.Reset(fsys, "ckpt"); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			j, err = checkpoint.Open(fsys, "ckpt", cfg.Fingerprint(), checkpoint.Options{FlushEvery: 4})
		}
		if err != nil {
			t.Fatalf("round %d: Open: %v", round, err)
		}
		terminal := make(map[checkpoint.Key]bool)
		for _, rec := range j.Records() {
			terminal[rec.Key] = true
		}
		cfg.Journal = j
		cfg.fitHook = func(k checkpoint.Key) {
			if terminal[k] {
				t.Errorf("round %d: journaled unit %s refitted", round, k)
			}
		}

		final := round == maxRounds-1
		ctx, cancel := context.WithCancel(context.Background())
		if !final {
			killAt := 1 + int(rng.Uint64()%34) // anywhere in the 32-unit build, sometimes past it
			run.Step("kill", "at fit", killAt)
			var fits atomic.Int64
			hook := cfg.fitHook
			cfg.fitHook = func(k checkpoint.Key) {
				hook(k)
				if int(fits.Add(1)) == killAt {
					cancel()
				}
			}
		} else {
			run.Step("final")
		}

		lib, _, err := Build(ctx, cfg)
		cancel()
		j.Close()
		if err == nil {
			var buf bytes.Buffer
			if werr := liberty.WriteLibrary(&buf, lib); werr != nil {
				t.Fatalf("round %d: write: %v", round, werr)
			}
			if d := chaostest.Diff(buf.Bytes(), golden); d != "" {
				t.Fatalf("round %d: completed library differs from golden: %s", round, d)
			}
			return // a completed round with golden bytes is the pass condition
		}
		if final {
			t.Fatalf("final uninterrupted round failed: %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: build failed with %v, want the injected cancellation", round, err)
		}

		// Post-kill damage: sometimes tear the newest segment, sometimes
		// rot a random one, sometimes leave the journal clean.
		paths := fsys.Paths()
		if len(paths) == 0 {
			continue
		}
		switch rng.Uint64() % 4 {
		case 0: // torn tail in the newest segment
			p := paths[len(paths)-1]
			b, _ := fsys.ReadFile(p)
			if n := len(b) - (1 + int(rng.Uint64()%16)); n > 0 {
				fsys.Truncate(p, n)
				run.Step("tear", p, "to", n, "bytes")
			}
		case 1: // single-byte rot anywhere
			p := paths[int(rng.Uint64()%uint64(len(paths)))]
			b, _ := fsys.ReadFile(p)
			off := int(rng.Uint64() % uint64(len(b)))
			fsys.FlipByte(p, off)
			run.Step("rot", p, "byte", off)
		default:
			run.Step("resume")
		}
	}
	t.Fatalf("no round completed within %d attempts", maxRounds)
}
