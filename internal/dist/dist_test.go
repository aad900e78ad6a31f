package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
)

// testBuild is the same 32-unit build the libbuild suite uses: two cell
// types, two arcs each, a 2×2 subsampled grid.
func testBuild(j *checkpoint.Journal) libbuild.Config {
	inv, _ := cells.CellByName("INV")
	nand, _ := cells.CellByName("NAND2")
	return libbuild.Config{
		Types:   []cells.CellType{inv, nand},
		ArcsPer: 2,
		Char: cells.CharConfig{
			Samples:    400,
			Seed:       99,
			GridStride: 4,
			Workers:    2,
		},
		LVF2:    true,
		Journal: j,
	}
}

// smallBuild is a single-arc build (8 units) for protocol-level tests.
func smallBuild(j *checkpoint.Journal) libbuild.Config {
	inv, _ := cells.CellByName("INV")
	return libbuild.Config{
		Types:   []cells.CellType{inv},
		ArcsPer: 1,
		Char:    cells.CharConfig{Samples: 200, Seed: 7, GridStride: 4},
		LVF2:    true,
		Journal: j,
	}
}

func openJournal(t *testing.T, fsys checkpoint.FS, dir string, fp checkpoint.Fingerprint) *checkpoint.Journal {
	t.Helper()
	j, err := checkpoint.Open(fsys, dir, fp, checkpoint.Options{FlushEvery: 4})
	if err != nil {
		t.Fatalf("Open journal %s: %v", dir, err)
	}
	return j
}

// singleProcessLib builds the golden .lib bytes in one process.
func singleProcessLib(t *testing.T, cfg libbuild.Config) []byte {
	t.Helper()
	lib, _, err := libbuild.Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("single-process Build: %v", err)
	}
	var buf bytes.Buffer
	if err := liberty.WriteLibrary(&buf, lib); err != nil {
		t.Fatalf("WriteLibrary: %v", err)
	}
	return buf.Bytes()
}

// assembleLib emits the library from a journal that already holds every
// unit: a pure restore pass.
func assembleLib(t *testing.T, cfg libbuild.Config) ([]byte, libbuild.Stats) {
	t.Helper()
	lib, stats, err := libbuild.Build(context.Background(), cfg)
	if err != nil {
		t.Fatalf("assembly Build: %v", err)
	}
	var buf bytes.Buffer
	if err := liberty.WriteLibrary(&buf, lib); err != nil {
		t.Fatalf("WriteLibrary: %v", err)
	}
	return buf.Bytes(), stats
}

// assertOneTerminalPerKey replays the journal's full append history and
// fails if any unit was journaled more than once (every record is
// terminal) — the no-double-journal invariant of idempotent completion.
func assertOneTerminalPerKey(t *testing.T, fsys checkpoint.FS, dir string, fp checkpoint.Fingerprint) {
	t.Helper()
	recs, err := checkpoint.ReplayRecords(fsys, dir, fp)
	if err != nil {
		t.Fatalf("ReplayRecords: %v", err)
	}
	terminal := map[checkpoint.Key]int{}
	for _, rec := range recs {
		terminal[rec.Key]++
	}
	for k, n := range terminal {
		if n > 1 {
			t.Errorf("unit %s journaled terminal %d times", k, n)
		}
	}
}

// TestDistributedBuildMatchesSingleProcess is the tentpole guarantee: a
// coordinator and three workers over real HTTP produce a journal whose
// assembled library is bit-identical to a single-process build.
func TestDistributedBuildMatchesSingleProcess(t *testing.T) {
	goldenFS := faultinject.NewMemFS()
	goldenCfg := testBuild(openJournal(t, goldenFS, "golden", testBuild(nil).Fingerprint()))
	golden := singleProcessLib(t, goldenCfg)

	fsys := faultinject.NewMemFS()
	j := openJournal(t, fsys, "ckpt", testBuild(nil).Fingerprint())
	cfg := testBuild(j)
	c, err := NewCoordinator(CoordinatorConfig{
		Build:    cfg,
		LeaseTTL: 5 * time.Second,
		PollWait: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, WorkerConfig{ID: fmt.Sprintf("w%d", i), URL: srv.URL})
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done after all workers exited")
	}

	// Assemble from the journal: everything must restore, nothing refit.
	libBytes, stats := assembleLib(t, cfg)
	if stats.Restored != stats.Units || stats.Units != 32 {
		t.Fatalf("assembly restored %d/%d units, want 32/32", stats.Restored, stats.Units)
	}
	if !bytes.Equal(libBytes, golden) {
		t.Fatal("distributed library differs from single-process build")
	}
	j.Close()
	assertOneTerminalPerKey(t, fsys, "ckpt", cfg.Fingerprint())
}

// TestCompleteRejectsUndecodablePayload: an OK submission whose payload
// does not decode — done or salvage — is a malformed request. It is
// answered 400 and journals nothing, so the unit stays non-terminal and
// the drained journal still assembles the single-process library.
func TestCompleteRejectsUndecodablePayload(t *testing.T) {
	fsys := faultinject.NewMemFS()
	fp := smallBuild(nil).Fingerprint()
	j := openJournal(t, fsys, "ckpt", fp)
	cfg := smallBuild(j)
	c, err := NewCoordinator(CoordinatorConfig{Build: cfg, LeaseTTL: 5 * time.Second, PollWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	refs, err := libbuild.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := refs[0].Key
	w := &worker{cfg: WorkerConfig{ID: "w1", URL: srv.URL}.withDefaults()}
	for _, rung := range []string{"", "gaussian"} {
		var resp CompleteResponse
		err := w.post(context.Background(), PathComplete, CompleteRequest{Worker: "w1", Fingerprint: fp.Hash(),
			Key: k, OK: true, Payload: []byte("x"), Rung: rung}, &resp)
		if err == nil || !strings.Contains(err.Error(), "400 Bad Request") {
			t.Fatalf("undecodable payload (rung %q): %v, want a 400", rung, err)
		}
	}
	if rec, ok := j.Lookup(k); ok {
		t.Fatalf("undecodable payload journaled: %+v", rec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := RunWorker(ctx, WorkerConfig{ID: "w2", URL: srv.URL}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	libBytes, stats := assembleLib(t, cfg)
	if stats.Restored != stats.Units || stats.Units != 8 {
		t.Fatalf("assembly restored %d/%d units, want 8/8", stats.Restored, stats.Units)
	}
	if !bytes.Equal(libBytes, singleProcessLib(t, smallBuild(nil))) {
		t.Fatal("library differs from the single-process build")
	}
}

// newTestCoordinator wires a coordinator over a fake clock for
// deterministic lease-expiry tests.
func newTestCoordinator(t *testing.T, cfg libbuild.Config, clk *faultinject.Clock, deathBudget int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Build:       cfg,
		LeaseTTL:    10 * time.Second,
		DeathBudget: deathBudget,
		Now:         clk.Now,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

// salvagePayload is a real, decodable unit payload for k: the Executor's
// salvage emission, the cheapest payload the coordinator accepts.
func salvagePayload(t testing.TB, cfg libbuild.Config, k checkpoint.Key) []byte {
	t.Helper()
	e, err := libbuild.NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := e.Salvage(context.Background(), k)
	if err != nil {
		t.Fatalf("Salvage(%s): %v", k, err)
	}
	return payload
}

func TestCompleteIsIdempotent(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 2)

	lr := c.Lease(LeaseRequest{Worker: "w1"})
	if lr.Lease == nil || len(lr.Lease.Keys) != 2 {
		t.Fatalf("first lease = %+v, want a 2-unit pair", lr)
	}
	req := CompleteRequest{
		Worker: "w1", Fingerprint: cfg.Fingerprint().Hash(), LeaseID: lr.Lease.ID,
		Key: lr.Lease.Keys[0], OK: true, Payload: salvagePayload(t, cfg, lr.Lease.Keys[0]),
	}
	first, err := c.Complete(req)
	if err != nil || !first.Accepted || first.Duplicate {
		t.Fatalf("first Complete = %+v, %v", first, err)
	}
	// The retried submission (lost response) and a stale resubmission
	// from another worker both dedup against the journal.
	for _, worker := range []string{"w1", "w2"} {
		req.Worker = worker
		dup, err := c.Complete(req)
		if err != nil || !dup.Accepted || !dup.Duplicate {
			t.Fatalf("duplicate Complete from %s = %+v, %v", worker, dup, err)
		}
	}
	cfg.Journal.Close()
	recs, err := checkpoint.ReplayRecords(fsys, "ckpt", cfg.Fingerprint())
	if err != nil {
		t.Fatalf("ReplayRecords: %v", err)
	}
	n := 0
	for _, rec := range recs {
		if rec.Key == lr.Lease.Keys[0] {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("unit journaled %d times after 3 submissions, want 1", n)
	}
}

func TestLeaseExpiryReleasesUnits(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 99)

	l1 := c.Lease(LeaseRequest{Worker: "w1"}).Lease
	if l1 == nil {
		t.Fatal("no first lease")
	}
	// While the lease is live, the same units are not re-leased: the next
	// request gets the next pair.
	l2 := c.Lease(LeaseRequest{Worker: "w2"}).Lease
	if l2 == nil || l2.Keys[0] == l1.Keys[0] {
		t.Fatalf("second lease reissued leased units: %+v", l2)
	}

	// w1 goes dark: past the TTL its units are re-leasable, its lease ID
	// is dead, and the expiry is visible in the heartbeat channel.
	clk.Advance(11 * time.Second)
	if hb := c.Heartbeat(HeartbeatRequest{Worker: "w1", LeaseID: l1.ID}); hb.OK {
		t.Fatal("heartbeat renewed an expired lease")
	}
	l3 := c.Lease(LeaseRequest{Worker: "w3"}).Lease
	if l3 == nil || l3.Keys[0] != l1.Keys[0] {
		t.Fatalf("expired units not re-leased: got %+v, want keys of lease 1", l3)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 99)

	l := c.Lease(LeaseRequest{Worker: "w1"}).Lease
	for i := 0; i < 5; i++ {
		clk.Advance(6 * time.Second) // past TTL/2 each step, never past TTL since renewal
		if hb := c.Heartbeat(HeartbeatRequest{Worker: "w1", LeaseID: l.ID}); !hb.OK {
			t.Fatalf("heartbeat %d rejected for a live, renewed lease", i)
		}
	}
	// A heartbeat from the wrong worker must not renew someone else's
	// lease.
	if hb := c.Heartbeat(HeartbeatRequest{Worker: "thief", LeaseID: l.ID}); hb.OK {
		t.Fatal("heartbeat accepted from a worker that does not own the lease")
	}
}

func TestDeathBudgetRoutesUnitToSalvage(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 2)

	// The same pair kills two workers in a row.
	var firstKeys []checkpoint.Key
	for death := 1; death <= 2; death++ {
		l := c.Lease(LeaseRequest{Worker: fmt.Sprintf("victim%d", death)}).Lease
		if l == nil {
			t.Fatalf("death %d: no lease", death)
		}
		if firstKeys == nil {
			firstKeys = l.Keys
		} else if l.Keys[0] != firstKeys[0] {
			t.Fatalf("death %d re-leased different units: %+v", death, l.Keys)
		}
		clk.Advance(11 * time.Second)
	}

	// The poison units now come back one at a time as salvage leases.
	sl := c.Lease(LeaseRequest{Worker: "salvager"}).Lease
	if sl == nil || !sl.Salvage || len(sl.Keys) != 1 {
		t.Fatalf("after %d worker deaths, lease = %+v, want single-unit salvage", 2, sl)
	}
	if !strings.Contains(sl.LastErr, "outlived 2 workers") {
		t.Fatalf("salvage LastErr = %q, want the death account", sl.LastErr)
	}
	resp, err := c.Complete(CompleteRequest{
		Worker: "salvager", Fingerprint: cfg.Fingerprint().Hash(), LeaseID: sl.ID,
		Key: sl.Keys[0], OK: true, Payload: salvagePayload(t, cfg, sl.Keys[0]), Rung: "gaussian",
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("salvage Complete = %+v, %v", resp, err)
	}
	rec, ok := cfg.Journal.Lookup(sl.Keys[0])
	if !ok || rec.Status != checkpoint.StatusQuarantined || rec.Rung != "gaussian" {
		t.Fatalf("journal record = %+v ok=%v, want quarantined with rung", rec, ok)
	}
	if want := checkpoint.QuarantineNote(sl.LastErr); rec.Note != want {
		t.Fatalf("quarantine note = %q, want %q", rec.Note, want)
	}
}

// TestReportedFailuresSpendRetryBudgetThenSalvage: a failure a worker
// reports is never re-run, since the fit is pure, so the unit comes
// straight back as the next lease — a salvage lease carrying the
// reported cause — and is quarantined with the note a single-process
// build writes for the same failure.
func TestReportedFailuresSpendRetryBudgetThenSalvage(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 99)

	const cause = "synthetic fit explosion"
	l := c.Lease(LeaseRequest{Worker: "w1"}).Lease
	k := l.Keys[0]
	if _, err := c.Complete(CompleteRequest{Worker: "w1", Fingerprint: cfg.Fingerprint().Hash(),
		LeaseID: l.ID, Key: k, OK: false, Err: cause}); err != nil {
		t.Fatalf("reported failure: %v", err)
	}
	if rec, ok := cfg.Journal.Lookup(k); ok {
		t.Fatalf("reported failure journaled as %+v; only outcomes are journaled", rec)
	}

	sl := c.Lease(LeaseRequest{Worker: "w2"}).Lease
	if sl == nil || !sl.Salvage || len(sl.Keys) != 1 || sl.Keys[0] != k || sl.LastErr != cause {
		t.Fatalf("next lease = %+v, want a salvage lease of %s carrying %q", sl, k, cause)
	}
	payload := salvagePayload(t, cfg, k)
	resp, err := c.Complete(CompleteRequest{Worker: "w2", Fingerprint: cfg.Fingerprint().Hash(),
		LeaseID: sl.ID, Key: k, OK: true, Payload: payload, Rung: "floored-gaussian", Err: sl.LastErr})
	if err != nil || !resp.Accepted {
		t.Fatalf("salvage Complete = %+v, %v", resp, err)
	}

	local, err := checkpoint.Open(faultinject.NewMemFS(), "local", cfg.Fingerprint(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Do(context.Background(), k,
		func(context.Context) ([]byte, error) { return nil, errors.New(cause) },
		func(error) ([]byte, string) { return payload, "floored-gaussian" })
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := cfg.Journal.Lookup(k)
	if rec.Status != checkpoint.StatusQuarantined || rec.Note != want.Note || rec.Rung != want.Rung ||
		!bytes.Equal(rec.Payload, want.Payload) {
		t.Fatalf("quarantine record = %+v, want the single-process one %+v", rec, want)
	}
}

// TestCoordinatorRestartRecoversFromJournal kills the coordinator (all
// soft state lost) and restarts it against the same journal: terminal
// units stay terminal, a reported failure left nothing in the journal,
// and the remaining work drains normally.
func TestCoordinatorRestartRecoversFromJournal(t *testing.T) {
	fsys := faultinject.NewMemFS()
	fp := smallBuild(nil).Fingerprint()
	j := openJournal(t, fsys, "ckpt", fp)
	cfg := smallBuild(j)
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 99)

	// Complete one pair, report one unit failed, leave a lease dangling.
	l1 := c.Lease(LeaseRequest{Worker: "w1"}).Lease
	for _, k := range l1.Keys {
		if _, err := c.Complete(CompleteRequest{Worker: "w1", Fingerprint: fp.Hash(),
			LeaseID: l1.ID, Key: k, OK: true, Payload: salvagePayload(t, cfg, k)}); err != nil {
			t.Fatal(err)
		}
	}
	l2 := c.Lease(LeaseRequest{Worker: "w1"}).Lease
	if _, err := c.Complete(CompleteRequest{Worker: "w1", Fingerprint: fp.Hash(),
		LeaseID: l2.ID, Key: l2.Keys[0], OK: false, Err: "transient"}); err != nil {
		t.Fatal(err)
	}
	_ = c.Lease(LeaseRequest{Worker: "w1"}) // dangling lease at crash time

	// Crash: flush + reopen the journal, new coordinator, nothing else
	// carried over.
	j.Close()
	j2 := openJournal(t, fsys, "ckpt", fp)
	cfg2 := smallBuild(j2)
	clk2 := faultinject.NewClock(time.Time{})
	c2 := newTestCoordinator(t, cfg2, clk2, 99)

	// 8 units, 2 terminal: 6 pending, the failed unit among them.
	seen := map[checkpoint.Key]bool{}
	for {
		lr := c2.Lease(LeaseRequest{Worker: "w2"})
		if lr.Done {
			break
		}
		if lr.Lease == nil {
			t.Fatalf("restarted coordinator stalled with %d units completed", len(seen))
		}
		for _, k := range lr.Lease.Keys {
			if seen[k] {
				t.Fatalf("unit %s leased twice after completion", k)
			}
			seen[k] = true
			if _, err := c2.Complete(CompleteRequest{Worker: "w2", Fingerprint: fp.Hash(),
				LeaseID: lr.Lease.ID, Key: k, OK: true, Payload: salvagePayload(t, cfg2, k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("restarted coordinator leased %d units, want the 6 non-terminal ones", len(seen))
	}
	for _, k := range l1.Keys {
		if seen[k] {
			t.Fatalf("terminal unit %s re-leased after restart", k)
		}
	}
	if !c2.Done() {
		t.Fatal("restarted coordinator not done")
	}
	j2.Close()
	assertOneTerminalPerKey(t, fsys, "ckpt", fp)
}

func TestFingerprintMismatchRejectedWith409(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 2)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	l := c.Lease(LeaseRequest{Worker: "w1"}).Lease
	w := &worker{cfg: WorkerConfig{ID: "w1", URL: srv.URL}.withDefaults()}
	w.fp = cfg.Fingerprint().Hash() ^ 0xdead // a different build

	var resp CompleteResponse
	err := w.post(context.Background(), PathComplete, CompleteRequest{
		Worker: "w1", Fingerprint: w.fp, LeaseID: l.ID, Key: l.Keys[0],
		OK: true, Payload: []byte("alien bits"),
	}, &resp)
	if !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("mismatched submission error = %v, want ErrSpecMismatch (from a 409)", err)
	}
	if _, ok := cfg.Journal.Lookup(l.Keys[0]); ok {
		t.Fatal("mismatched submission reached the journal")
	}
}

// blockingExecutor wraps the real executor but parks the first Execute
// of a chosen unit until its context dies.
type blockingExecutor struct {
	inner   UnitExecutor
	block   checkpoint.Key
	started chan struct{}
	once    sync.Once
}

func (b *blockingExecutor) Execute(ctx context.Context, k checkpoint.Key) ([]byte, error) {
	if k == b.block {
		blocked := false
		b.once.Do(func() { close(b.started); blocked = true })
		if blocked {
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	return b.inner.Execute(ctx, k)
}

func (b *blockingExecutor) Salvage(ctx context.Context, k checkpoint.Key) ([]byte, string, error) {
	return b.inner.Salvage(ctx, k)
}

// TestWorkerAbandonsRevokedLease is the distributed half of the
// cancellation-races-lease-expiry satellite: a worker wedged mid-unit
// whose lease disappears (the unit finished elsewhere) must abandon the
// unit without submitting anything — the unit is journaled exactly
// once, as done, by the other party.
func TestWorkerAbandonsRevokedLease(t *testing.T) {
	fsys := faultinject.NewMemFS()
	fp := smallBuild(nil).Fingerprint()
	j := openJournal(t, fsys, "ckpt", fp)
	cfg := smallBuild(j)
	c, err := NewCoordinator(CoordinatorConfig{
		Build:    cfg,
		LeaseTTL: 300 * time.Millisecond, // heartbeat every 100ms
		PollWait: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	refs, err := libbuild.Plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	newExec := func(bc libbuild.Config) (UnitExecutor, error) {
		inner, err := libbuild.NewExecutor(bc)
		if err != nil {
			return nil, err
		}
		return &blockingExecutor{inner: inner, block: refs[0].Key, started: started}, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- RunWorker(ctx, WorkerConfig{ID: "wedged", URL: srv.URL, NewExecutor: newExec})
	}()

	// The worker is now parked inside refs[0]. Finish its whole lease
	// from the side (the re-lease twin finished first); the lease
	// evaporates and the next heartbeat tells the worker to let go.
	<-started
	realExec, err := libbuild.NewExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs[:2] {
		payload, err := realExec.Execute(ctx, ref.Key)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Complete(CompleteRequest{Worker: "twin", Fingerprint: fp.Hash(),
			Key: ref.Key, OK: true, Payload: payload})
		if err != nil || !resp.Accepted {
			t.Fatalf("twin Complete(%s) = %+v, %v", ref.Key, resp, err)
		}
	}

	// The worker must shake off the dead lease and drain the rest.
	if err := <-workerErr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if !c.Done() {
		t.Fatal("build not done")
	}
	j.Close()
	recs, err := checkpoint.ReplayRecords(fsys, "ckpt", fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Key == refs[0].Key && rec.Status != checkpoint.StatusDone {
			t.Fatalf("abandoned unit journaled as %v: %+v", rec.Status, rec)
		}
	}
	assertOneTerminalPerKey(t, fsys, "ckpt", fp)
}

// TestReadyzAndMetrics sanity-checks the coordinator's probe surface.
func TestReadyzAndMetrics(t *testing.T) {
	fsys := faultinject.NewMemFS()
	cfg := smallBuild(openJournal(t, fsys, "ckpt", smallBuild(nil).Fingerprint()))
	clk := faultinject.NewClock(time.Time{})
	c := newTestCoordinator(t, cfg, clk, 2)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "8 units pending") {
		t.Fatalf("/readyz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "lvf2_dist_units_pending") {
		t.Fatalf("/metrics = %d, missing dist series: %.200s", code, body)
	}
}

// TestKeyWireJSON pins a unit key's wire form, the bytes every lease
// and result submission carries: coordinators and workers of one build
// must read each other's keys.
func TestKeyWireJSON(t *testing.T) {
	k := checkpoint.Key{Cell: "NAND2", Pin: "B", Arc: "NAND2/arc01", Slew: 4, Load: 0, Kind: "Transition"}
	const want = `{"cell":"NAND2","pin":"B","arc":"NAND2/arc01","slew":4,"load":0,"kind":"Transition"}`
	b, err := json.Marshal(k)
	if err != nil || string(b) != want {
		t.Fatalf("json.Marshal(%s) = %s, %v; want %s", k, b, err, want)
	}
	var back checkpoint.Key
	if err := json.Unmarshal([]byte(want), &back); err != nil || back != k {
		t.Fatalf("json.Unmarshal(%s) = %+v, %v; want %+v", want, back, err, k)
	}
}
