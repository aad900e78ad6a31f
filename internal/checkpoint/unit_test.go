package checkpoint

import (
	"context"
	"errors"
	"testing"

	"lvf2/internal/faultinject"
	"lvf2/internal/pool"
)

// noSalvage is the salvage of a test whose unit must not fail.
func noSalvage(t *testing.T) func(error) ([]byte, string) {
	return func(cause error) ([]byte, string) {
		t.Errorf("salvage called: %v", cause)
		return nil, ""
	}
}

func TestRunnerDoneAndRestore(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	k := testKey(0)

	runs := 0
	run := func(context.Context) ([]byte, error) { runs++; return []byte("result"), nil }
	u, err := j.Do(context.Background(), k, run, noSalvage(t))
	if err != nil || u.Restored || string(u.Payload) != "result" {
		t.Fatalf("first Do = %+v, %v", u, err)
	}

	// Same process: the journal now answers without re-running.
	u, err = j.Do(context.Background(), k, run, noSalvage(t))
	if err != nil || !u.Restored || string(u.Payload) != "result" {
		t.Fatalf("second Do = %+v, %v", u, err)
	}
	if runs != 1 {
		t.Errorf("run invoked %d times, want 1", runs)
	}

	// Fresh process over the sealed journal: still restored.
	j.Close()
	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	u, err = j2.Do(context.Background(), k, run, noSalvage(t))
	if err != nil || !u.Restored || string(u.Payload) != "result" {
		t.Fatalf("resumed Do = %+v, %v", u, err)
	}
	if runs != 1 {
		t.Errorf("terminal unit recomputed after resume (%d runs)", runs)
	}
}

// TestRunnerRetryThenQuarantineWithSalvage pins the rule for a failing
// unit: run is invoked exactly once, never again, and the unit is
// journaled as quarantined with the salvage payload, its rung and
// QuarantineNote of the cause. The quarantine is terminal, across a
// restart too.
func TestRunnerRetryThenQuarantineWithSalvage(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{})
	k := testKey(1)

	runs := 0
	run := func(context.Context) ([]byte, error) { runs++; return nil, errors.New("poison") }
	var causes []error
	salvage := func(cause error) ([]byte, string) {
		causes = append(causes, cause)
		return []byte("degraded"), "floored-gaussian"
	}
	u, err := j.Do(context.Background(), k, run, salvage)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if runs != 1 {
		t.Errorf("run invoked %d times, want 1", runs)
	}
	if len(causes) != 1 || causes[0] == nil || causes[0].Error() != "poison" {
		t.Errorf("salvage causes = %v, want the one run failure", causes)
	}
	want := Unit{Key: k, Payload: []byte("degraded"), Quarantined: true, Rung: "floored-gaussian",
		Note: QuarantineNote("poison")}
	if u.Key != want.Key || string(u.Payload) != string(want.Payload) || u.Restored || !u.Quarantined ||
		u.Rung != want.Rung || u.Note != want.Note {
		t.Errorf("unit = %+v, want %+v", u, want)
	}
	if rec, ok := j.Lookup(k); !ok || rec.Status != StatusQuarantined || rec.Rung != want.Rung ||
		rec.Note != want.Note || string(rec.Payload) != "degraded" {
		t.Errorf("journal record = %+v ok=%v", rec, ok)
	}

	// Quarantine is terminal: a later Do, here or after a restart,
	// restores the salvage emission without running the unit.
	j.Close()
	j2 := mustOpen(t, fsys, "ckpt", testFP, Options{})
	u, err = j2.Do(context.Background(), k, run, salvage)
	if err != nil || !u.Restored || !u.Quarantined || string(u.Payload) != "degraded" || u.Note != want.Note {
		t.Fatalf("restored quarantined unit = %+v, %v", u, err)
	}
	if runs != 1 || len(causes) != 1 {
		t.Errorf("quarantined unit re-ran (%d runs, %d salvages)", runs, len(causes))
	}
}

// TestRunnerPanicIsAFailure: a panicking run is a failure like any
// other — recovered, salvaged once, and journaled as quarantined with
// the panic as its cause.
func TestRunnerPanicIsAFailure(t *testing.T) {
	j := mustOpen(t, faultinject.NewMemFS(), "ckpt", testFP, Options{})
	k := testKey(4)

	runs := 0
	run := func(context.Context) ([]byte, error) {
		runs++
		panic("characterisation kernel exploded")
	}
	var cause error
	u, err := j.Do(context.Background(), k, run, func(c error) ([]byte, string) {
		cause = c
		return []byte("salvaged"), "gaussian"
	})
	if err != nil || runs != 1 || !u.Quarantined || string(u.Payload) != "salvaged" {
		t.Fatalf("Do = %+v, %v (runs=%d)", u, err, runs)
	}
	var pe *pool.PanicError
	if !errors.As(cause, &pe) {
		t.Fatalf("salvage cause = %v, want a *pool.PanicError", cause)
	}
	if rec, ok := j.Lookup(k); !ok || rec.Status != StatusQuarantined || rec.Note != QuarantineNote(cause.Error()) {
		t.Errorf("journal record = %+v ok=%v", rec, ok)
	}
}

func TestRunnerCancellationIsNotAUnitFault(t *testing.T) {
	j := mustOpen(t, faultinject.NewMemFS(), "ckpt", testFP, Options{})
	k := testKey(5)

	ctx, cancel := context.WithCancel(context.Background())
	run := func(c context.Context) ([]byte, error) {
		cancel() // the kill arrives mid-unit
		return nil, c.Err()
	}
	_, err := j.Do(ctx, k, run, noSalvage(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", err)
	}
	// The unit must stay runnable after resume: nothing journaled.
	if rec, ok := j.Lookup(k); ok {
		t.Errorf("cancellation journaled as %v", rec.Status)
	}
}

// TestRunnerCancellationRacesLeaseExpiryRerunnable is the distributed
// re-lease scenario at the Do level: a worker's context is cancelled
// mid-unit (its lease expired, or the process was told to die) while
// the same unit is being re-run elsewhere. The cancelled Do must
// journal nothing for the unit — across a seal and a reopen — and the
// unit must run cleanly on resume, producing exactly one record in the
// full append history.
func TestRunnerCancellationRacesLeaseExpiryRerunnable(t *testing.T) {
	fsys := faultinject.NewMemFS()
	j := mustOpen(t, fsys, "ckpt", testFP, Options{FlushEvery: 1})
	k := testKey(9)

	ctx, cancel := context.WithCancel(context.Background())
	_, err := j.Do(ctx, k, func(c context.Context) ([]byte, error) {
		cancel() // lease expiry lands mid-computation
		return nil, c.Err()
	}, noSalvage(t))
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

	// Resume: the unit runs cleanly.
	u, err := j2.Do(context.Background(), k,
		func(context.Context) ([]byte, error) { return []byte("redone"), nil }, noSalvage(t))
	if err != nil || u.Restored || string(u.Payload) != "redone" {
		t.Fatalf("re-run after cancellation = %+v, %v", u, err)
	}
	j2.Close()

	// The full append history holds exactly one record for k.
	recs, err := ReplayRecords(fsys, "ckpt", testFP)
	if err != nil {
		t.Fatalf("ReplayRecords: %v", err)
	}
	n := 0
	for _, rec := range recs {
		if rec.Key == k {
			n++
		}
	}
	if n != 1 {
		t.Errorf("append history holds %d records for %s, want 1", n, k)
	}
}

func TestRunnerNilJournal(t *testing.T) {
	var j *Journal
	u, err := j.Do(context.Background(), testKey(8),
		func(context.Context) ([]byte, error) { return []byte("ok"), nil }, noSalvage(t))
	if err != nil || string(u.Payload) != "ok" {
		t.Fatalf("Do without journal = %+v, %v", u, err)
	}
	u, err = j.Do(context.Background(), testKey(8),
		func(context.Context) ([]byte, error) { return nil, errors.New("poison") },
		func(error) ([]byte, string) { return []byte("degraded"), "gaussian" })
	if err != nil || !u.Quarantined || string(u.Payload) != "degraded" {
		t.Fatalf("failing Do without journal = %+v, %v", u, err)
	}
}
