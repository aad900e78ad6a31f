package checkpoint

import (
	"context"
	"errors"
	"testing"
	"time"

	"lvf2/internal/faultinject"
)

// fakeSleep records requested backoff delays without waiting.
type fakeSleep struct{ delays []time.Duration }

func (f *fakeSleep) sleep(ctx context.Context, d time.Duration) error {
	f.delays = append(f.delays, d)
	return ctx.Err()
}

func testRunner(j *Journal, sl *fakeSleep) *Runner {
	return &Runner{Journal: j, Policy: RetryPolicy{MaxAttempts: 3, Sleep: sl.sleep}}
}

func TestRunnerDoneAndRestore(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	r := testRunner(j, &fakeSleep{})
	k := testKey(0)

	runs := 0
	run := func(context.Context) ([]byte, error) { runs++; return []byte("result"), nil }
	u, err := r.Do(context.Background(), k, run, nil)
	if err != nil || u.Restored || string(u.Payload) != "result" || u.Attempts != 1 {
		t.Fatalf("first Do = %+v, %v", u, err)
	}

	// Same process: the journal now answers without re-running.
	u, err = r.Do(context.Background(), k, run, nil)
	if err != nil || !u.Restored || string(u.Payload) != "result" {
		t.Fatalf("second Do = %+v, %v", u, err)
	}
	if runs != 1 {
		t.Errorf("run invoked %d times, want 1", runs)
	}

	// Fresh process over the sealed journal: still restored.
	j.Close()
	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	u, err = testRunner(j2, &fakeSleep{}).Do(context.Background(), k, run, nil)
	if err != nil || !u.Restored || string(u.Payload) != "result" {
		t.Fatalf("resumed Do = %+v, %v", u, err)
	}
	if runs != 1 {
		t.Errorf("terminal unit recomputed after resume (%d runs)", runs)
	}
}

func TestRunnerRetryThenQuarantineWithSalvage(t *testing.T) {
	j := mustOpen(t, faultinject.NewMemFS(), "ckpt", testFP, Options{})
	sl := &fakeSleep{}
	r := testRunner(j, sl)
	k := testKey(1)

	runs := 0
	run := func(context.Context) ([]byte, error) { runs++; return nil, errors.New("poison") }
	salvage := func(lastErr error) ([]byte, string, error) {
		if lastErr == nil {
			t.Error("salvage called with nil lastErr")
		}
		return []byte("degraded"), "floored-gaussian", nil
	}
	u, err := r.Do(context.Background(), k, run, salvage)
	if err != nil {
		t.Fatalf("Do with salvage: %v", err)
	}
	if !u.Quarantined || u.Rung != "floored-gaussian" || string(u.Payload) != "degraded" {
		t.Errorf("unit = %+v", u)
	}
	if runs != 3 {
		t.Errorf("run invoked %d times, want MaxAttempts=3", runs)
	}
	if len(sl.delays) != 2 {
		t.Errorf("slept %d times, want 2 (between 3 attempts)", len(sl.delays))
	}
	if rec, ok := j.Lookup(k); !ok || rec.Status != StatusQuarantined || rec.Rung != "floored-gaussian" {
		t.Errorf("journal record = %+v ok=%v", rec, ok)
	}

	// Quarantine is terminal: the next Do restores the salvage emission.
	u, err = r.Do(context.Background(), k, run, salvage)
	if err != nil || !u.Restored || !u.Quarantined || string(u.Payload) != "degraded" {
		t.Fatalf("restored quarantined unit = %+v, %v", u, err)
	}
	if runs != 3 {
		t.Errorf("quarantined unit re-ran (%d runs)", runs)
	}
}

func TestRunnerQuarantineDroppedWithoutSalvage(t *testing.T) {
	j := mustOpen(t, faultinject.NewMemFS(), "ckpt", testFP, Options{})
	r := testRunner(j, &fakeSleep{})
	k := testKey(2)

	run := func(context.Context) ([]byte, error) { return nil, errors.New("poison") }
	u, err := r.Do(context.Background(), k, run, nil)
	if !errors.Is(err, ErrUnitDropped) {
		t.Fatalf("Do = %v, want ErrUnitDropped", err)
	}
	if !u.Quarantined || u.Rung != "dropped" || u.Payload != nil {
		t.Errorf("unit = %+v", u)
	}
	if rec, ok := j.Lookup(k); !ok || rec.Status != StatusQuarantined || rec.Payload != nil {
		t.Errorf("journal record = %+v ok=%v", rec, ok)
	}
}

func TestRunnerFailedBudgetPersistsAcrossRestart(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	k := testKey(3)

	// "Previous process": two failed attempts journaled, then a crash.
	j.Failed(k, 2, "eval blew up")
	j.Close()

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	runs := 0
	run := func(context.Context) ([]byte, error) { runs++; return nil, errors.New("still poison") }
	u, err := testRunner(j2, &fakeSleep{}).Do(context.Background(), k, run, nil)
	if !errors.Is(err, ErrUnitDropped) {
		t.Fatalf("Do = %v, want ErrUnitDropped", err)
	}
	if runs != 1 {
		t.Errorf("run invoked %d times, want 1 (2 of 3 attempts spent before restart)", runs)
	}
	if u.Attempts != 3 {
		t.Errorf("total attempts = %d, want 3", u.Attempts)
	}
}

func TestRunnerPanicIsAFailure(t *testing.T) {
	j := mustOpen(t, faultinject.NewMemFS(), "ckpt", testFP, Options{})
	r := testRunner(j, &fakeSleep{})
	k := testKey(4)

	runs := 0
	run := func(context.Context) ([]byte, error) {
		runs++
		if runs < 3 {
			panic("characterisation kernel exploded")
		}
		return []byte("recovered"), nil
	}
	u, err := r.Do(context.Background(), k, run, nil)
	if err != nil || string(u.Payload) != "recovered" || u.Attempts != 3 {
		t.Fatalf("Do = %+v, %v (runs=%d)", u, err, runs)
	}
}

func TestRunnerCancellationIsNotAUnitFault(t *testing.T) {
	j := mustOpen(t, faultinject.NewMemFS(), "ckpt", testFP, Options{})
	r := testRunner(j, &fakeSleep{})
	k := testKey(5)

	ctx, cancel := context.WithCancel(context.Background())
	run := func(c context.Context) ([]byte, error) {
		cancel() // the kill arrives mid-unit
		return nil, c.Err()
	}
	_, err := r.Do(ctx, k, run, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	// The unit must stay runnable after resume: no failure journaled.
	if rec, ok := j.Lookup(k); ok {
		t.Errorf("cancellation journaled as %v", rec.Status)
	}
}

// TestRunnerCancellationRacesLeaseExpiryRerunnable is the distributed
// re-lease scenario at the Runner level: a worker's context is
// cancelled mid-unit (its lease expired, or the process was told to
// die) while the same unit is being re-run elsewhere. The cancelled Do
// must journal the unit as neither Done nor Failed — across a seal and
// a reopen — and the unit must run cleanly on resume, producing exactly
// one terminal record in the full append history.
func TestRunnerCancellationRacesLeaseExpiryRerunnable(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{FlushEvery: 1})
	k := testKey(9)

	ctx, cancel := context.WithCancel(context.Background())
	_, err := testRunner(j, &fakeSleep{}).Do(ctx, k, func(c context.Context) ([]byte, error) {
		cancel() // lease expiry lands mid-computation
		return nil, c.Err()
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do = %v, want context.Canceled", err)
	}
	j.Close()

	// The sealed journal must hold nothing for the unit: a cancelled run
	// is a scheduling event, not a unit outcome.
	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{FlushEvery: 1})
	if rec, ok := j2.Lookup(k); ok {
		t.Fatalf("cancelled unit journaled as %v", rec.Status)
	}

	// Resume: the unit runs cleanly, first attempt, full retry budget.
	u, err := testRunner(j2, &fakeSleep{}).Do(context.Background(), k,
		func(context.Context) ([]byte, error) { return []byte("redone"), nil }, nil)
	if err != nil || u.Restored || string(u.Payload) != "redone" || u.Attempts != 1 {
		t.Fatalf("re-run after cancellation = %+v, %v", u, err)
	}
	j2.Close()

	// The full append history holds exactly one terminal record for k.
	recs, err := ReplayRecords(fsys, "ckpt", testFP)
	if err != nil {
		t.Fatalf("ReplayRecords: %v", err)
	}
	terminal := 0
	for _, rec := range recs {
		if rec.Key == k && rec.Status.Terminal() {
			terminal++
		}
	}
	if terminal != 1 {
		t.Errorf("append history holds %d terminal records for %s, want 1", terminal, k)
	}
}

// TestRunnerCancellationDuringBackoffRerunnable: a cancellation that
// lands in the backoff sleep (after a real failure was journaled) keeps
// the unit re-runnable — the failure record persists the spent attempt,
// but no terminal record exists, so resume retries with the remaining
// budget.
func TestRunnerCancellationDuringBackoffRerunnable(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{FlushEvery: 1})
	k := testKey(10)

	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Journal: j, Policy: RetryPolicy{
		MaxAttempts: 3,
		Sleep: func(c context.Context, _ time.Duration) error {
			cancel() // the kill arrives while the unit waits to retry
			return c.Err()
		},
	}}
	_, err := r.Do(ctx, k, func(context.Context) ([]byte, error) {
		return nil, errors.New("transient eval fault")
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	j.Close()

	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{FlushEvery: 1})
	if rec, ok := j2.Lookup(k); !ok || rec.Status != StatusFailed || rec.Attempts != 1 {
		t.Fatalf("journal after backoff cancellation = %+v ok=%v, want Failed with 1 attempt", rec, ok)
	}
	runs := 0
	u, err := testRunner(j2, &fakeSleep{}).Do(context.Background(), k,
		func(context.Context) ([]byte, error) { runs++; return []byte("ok"), nil }, nil)
	if err != nil || string(u.Payload) != "ok" || u.Attempts != 2 {
		t.Fatalf("resumed Do = %+v, %v", u, err)
	}
	if runs != 1 {
		t.Errorf("resumed unit ran %d times, want 1", runs)
	}
}

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{Base: 100 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.2, Seed: 7}
	k := testKey(6)
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := p.Delay(k, attempt)
		d2 := p.Delay(k, attempt)
		if d1 != d2 {
			t.Errorf("attempt %d: delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		nominal := 100 * time.Millisecond << (attempt - 1)
		if nominal > 5*time.Second {
			nominal = 5 * time.Second
		}
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if d1 < lo || d1 > hi {
			t.Errorf("attempt %d: delay %v outside jitter band [%v, %v]", attempt, d1, lo, hi)
		}
	}
	// Different keys must not synchronise their schedules.
	if p.Delay(testKey(6), 1) == p.Delay(testKey(7), 1) {
		t.Error("two keys drew identical jitter")
	}
}

func TestRunnerNilJournal(t *testing.T) {
	r := &Runner{Policy: RetryPolicy{MaxAttempts: 2, Sleep: (&fakeSleep{}).sleep}}
	u, err := r.Do(context.Background(), testKey(8),
		func(context.Context) ([]byte, error) { return []byte("ok"), nil }, nil)
	if err != nil || string(u.Payload) != "ok" {
		t.Fatalf("Do without journal = %+v, %v", u, err)
	}
}
