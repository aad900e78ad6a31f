package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lvf2/internal/chaostest"
	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/mc"
)

// Distributed chaos harness. Each seed expands deterministically into a
// schedule of worker kills and coordinator crash-restarts, run over a
// fleet whose HTTP transport injects seeded network faults (requests
// erroring before delivery, responses dropped after delivery — the
// duplicate generator — corrupt and truncated bodies, stalls). The
// fleet keeps being refilled until the build drains. Invariants:
//
//   - the library assembled from the surviving journal is bit-identical
//     to a single-process build,
//   - no unit is ever journaled terminal twice (idempotent completion),
//   - the run terminates: leases expire, workers respawn, the
//     coordinator restarts from the journal alone.
//
// A failing seed's artifact carries the journal segments and the
// coordinator and worker logs (see chaostest).

// distChaosGolden is the uninterrupted single-process reference,
// computed once per test binary (the build config is constant).
var distChaosGolden struct {
	once sync.Once
	lib  []byte
}

func TestChaosDistributedBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	chaostest.Suite{Base: 7000, Stride: 17, Count: 2}.Run(t, runDistChaos)
}

func runDistChaos(t *testing.T, run *chaostest.Record) {
	distChaosGolden.once.Do(func() {
		goldenFS := faultinject.NewMemFS()
		cfg := testBuild(openJournal(t, goldenFS, "golden", testBuild(nil).Fingerprint()))
		distChaosGolden.lib = singleProcessLib(t, cfg)
	})
	golden := distChaosGolden.lib

	logs := run.Log()
	fsys := faultinject.NewMemFS()
	run.Attach(fsys)

	rng := mc.NewRNG(run.Seed)
	fp := testBuild(nil).Fingerprint()

	// The coordinator behind a swappable handler, so a "crash-restart"
	// keeps the fleet's URL stable while every piece of soft state —
	// leases, death counts, worker registry — is discarded and rebuilt
	// from the journal.
	var coordMu sync.Mutex
	var coord *Coordinator
	var journal *checkpoint.Journal
	newCoordinator := func() {
		coordMu.Lock()
		defer coordMu.Unlock()
		if journal != nil {
			journal.Close() // flush; a real crash would lose the unsealed tail instead
		}
		journal = openJournal(t, fsys, "ckpt", fp)
		cfg := testBuild(journal)
		c, err := NewCoordinator(CoordinatorConfig{
			Build:    cfg,
			LeaseTTL: 250 * time.Millisecond,
			PollWait: 10 * time.Millisecond,
			// Environmental deaths must never condemn a unit in this
			// suite: quarantine notes would (correctly) change the
			// emitted library, which is exactly what the bit-identical
			// assertion forbids for a fault-free unit.
			DeathBudget: 1 << 20,
			Log:         logs,
		})
		if err != nil {
			t.Fatalf("NewCoordinator: %v", err)
		}
		coord = c
	}
	current := func() *Coordinator {
		coordMu.Lock()
		defer coordMu.Unlock()
		return coord
	}
	newCoordinator()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current().Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	// The fleet: three slots, each slot refilled with a fresh worker
	// (new ID, new seeded fault transport) whenever its occupant exits
	// or is killed.
	faults := faultinject.NetFaults{
		PErrBefore:   0.05,
		PDropAfter:   0.05, // the duplicate-submission generator
		PCorruptBody: 0.03,
		PShortBody:   0.03,
		PStall:       0.02,
		Stall:        50 * time.Millisecond,
	}
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	const slots = 3
	type slot struct {
		cancel context.CancelFunc
		exited chan struct{}
		id     string
	}
	var (
		slotMu     sync.Mutex
		live       [slots]*slot
		gen        int
		transports []*faultinject.FaultTransport
	)
	spawn := func(i int) {
		slotMu.Lock()
		defer slotMu.Unlock()
		gen++
		id := fmt.Sprintf("w%d-g%d", i, gen)
		ft := faultinject.NewFaultTransport(nil, faults, run.Seed^uint64(gen)*0x9e3779b97f4a7c15)
		transports = append(transports, ft)
		wctx, cancel := context.WithCancel(ctx)
		s := &slot{cancel: cancel, exited: make(chan struct{}), id: id}
		live[i] = s
		run.Step("spawn", id)
		go func() {
			defer close(s.exited)
			err := RunWorker(wctx, WorkerConfig{
				ID:      id,
				URL:     srv.URL,
				Client:  &http.Client{Transport: ft},
				Backoff: 20 * time.Millisecond,
				Log:     logs,
			})
			fmt.Fprintf(logs, "chaos: worker %s exited: %v\n", id, err)
		}()
	}
	for i := 0; i < slots; i++ {
		spawn(i)
	}

	// The chaos schedule: every 30–130ms, kill a random worker, restart
	// the coordinator, or do nothing; always refill empty slots.
	deadline := time.After(60 * time.Second)
	for !current().Done() {
		select {
		case <-deadline:
			t.Fatal("chaos: build did not drain within 60s")
		case <-time.After(time.Duration(30+rng.Uint64()%100) * time.Millisecond):
		}
		switch rng.Uint64() % 5 {
		case 0, 1: // kill a worker (no goodbye: its lease must expire)
			i := int(rng.Uint64() % slots)
			slotMu.Lock()
			s := live[i]
			slotMu.Unlock()
			if s != nil {
				run.Step("kill", s.id)
				s.cancel()
			}
		case 2: // coordinator crash-restart
			run.Step("coordinator-restart")
			newCoordinator()
		}
		for i := 0; i < slots; i++ {
			slotMu.Lock()
			s := live[i]
			slotMu.Unlock()
			if s == nil {
				continue
			}
			select {
			case <-s.exited:
				spawn(i)
			default:
			}
		}
	}
	run.Step("done")
	cancelAll()
	slotMu.Lock()
	for _, s := range live {
		if s != nil {
			<-s.exited
		}
	}
	var injected int64
	for _, ft := range transports {
		injected += ft.Injected()
	}
	slotMu.Unlock()
	run.Step("net_faults_injected", injected)

	// Final assembly from the journal alone must restore all 32 units
	// and match the single-process golden bit for bit.
	coordMu.Lock()
	journal.Close()
	journal = nil
	coordMu.Unlock()
	j := openJournal(t, fsys, "ckpt", fp)
	libBytes, stats := assembleLib(t, testBuild(j))
	j.Close()
	if stats.Restored != stats.Units || stats.Units != 32 {
		t.Errorf("assembly restored %d/%d units, want 32/32", stats.Restored, stats.Units)
	}
	if stats.Quarantined != 0 {
		t.Errorf("chaos run quarantined %d units; environmental faults must not condemn units", stats.Quarantined)
	}
	if d := chaostest.Diff(libBytes, golden); d != "" {
		t.Errorf("chaos library differs from single-process golden: %s", d)
	}
	assertOneTerminalPerKey(t, fsys, "ckpt", fp)
	t.Logf("chaos seed %d: %d net faults injected", run.Seed, injected)
}
