package checkpoint

import (
	"context"
	"errors"
	"fmt"

	"lvf2/internal/pool"
)

// ErrUnitDropped marks a unit whose run attempts were exhausted and
// whose salvage (quarantine emission) also failed or was not provided.
// The unit is journaled as quarantined with no payload, so the rest of
// the library proceeds and a resume does not retry it.
var ErrUnitDropped = errors.New("checkpoint: unit quarantined with no salvage result")

// Unit is the resolved outcome of one work unit.
type Unit struct {
	Key Key
	// Payload is the serialised unit result (nil only for a dropped
	// quarantined unit).
	Payload []byte
	// Restored reports the result came from the journal, not a fresh
	// computation.
	Restored bool
	// Quarantined reports the unit exhausted its retry budget and
	// Payload (if any) is a degraded salvage emission.
	Quarantined bool
	// Rung names the degradation rung that produced a quarantined
	// payload.
	Rung string
	// Note carries provenance (the last failure cause for quarantined
	// units), destined for the Liberty ocv_fallback_note_* attribute.
	Note string
	// Attempts is how many run attempts the unit consumed in total,
	// across restarts.
	Attempts int
}

// Runner executes work units with journaled resume, retry with jittered
// exponential backoff, and poison-unit quarantine. A nil Journal is
// valid: units then only get the retry/quarantine behaviour.
type Runner struct {
	Journal *Journal
	Policy  RetryPolicy
}

// Do resolves one unit.
//
//   - If the journal already holds a terminal record for k (Done or
//     Quarantined), its payload is returned with Restored set and run is
//     never invoked — the no-recompute guarantee of resume.
//   - Otherwise run is attempted up to Policy.MaxAttempts times (counting
//     failed attempts journaled by previous processes), with backoff
//     between attempts. Panics inside run are recovered into errors and
//     count as failures.
//   - When the budget is exhausted the unit is poison: salvage (if
//     non-nil) produces the degraded stand-in payload and the rung that
//     made it, which is journaled as quarantined so the rest of the run —
//     and every future resume — proceeds without re-touching the unit.
//
// Context cancellation is not a unit fault: Do returns the context
// error without journaling a failure, leaving the unit runnable after
// resume.
//
// Payload purity. The no-recompute guarantee only yields bit-identical
// resumes if run is a pure function of the unit key and the
// fingerprinted configuration. A run callback MAY derive state from
// *other units' journaled payloads* — libbuild's warm-start seeds are
// decoded from a grid neighbour's payload bytes — provided the
// derivation itself is deterministic and the dependency always resolves
// through the payload (never a richer in-memory value a fresh process
// would not have), so a unit computed after a restore is byte-equal to
// one computed in the original run. Anything that would make payloads
// depend on scheduling, wall clock or process identity must instead go
// into the config fingerprint, the key, or a payload field.
func (r *Runner) Do(ctx context.Context, k Key, run func(context.Context) ([]byte, error), salvage func(lastErr error) (payload []byte, rung string, err error)) (Unit, error) {
	if rec, ok := r.Journal.Lookup(k); ok {
		switch rec.Status {
		case StatusDone:
			unitsRestored.Inc()
			return Unit{Key: k, Payload: rec.Payload, Restored: true, Attempts: rec.Attempts}, nil
		case StatusQuarantined:
			unitsRestored.Inc()
			return Unit{Key: k, Payload: rec.Payload, Restored: true, Quarantined: true,
				Rung: rec.Rung, Note: rec.Note, Attempts: rec.Attempts}, nil
		}
	}
	p := r.Policy.withDefaults()
	attempts := 0
	if rec, ok := r.Journal.Lookup(k); ok && rec.Status == StatusFailed {
		attempts = rec.Attempts
	}

	var lastErr error
	for attempts < p.MaxAttempts {
		if err := ctx.Err(); err != nil {
			return Unit{Key: k}, err
		}
		attempts++
		var payload []byte
		err := pool.Protect(k.String(), func() error {
			b, rerr := run(ctx)
			if rerr != nil {
				return rerr
			}
			payload = b
			return nil
		})
		if err == nil {
			r.Journal.Done(k, attempts, payload)
			unitsDone.Inc()
			return Unit{Key: k, Payload: payload, Attempts: attempts}, nil
		}
		if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
			// The run observed our cancellation, not a unit fault.
			return Unit{Key: k}, cerr
		}
		lastErr = err
		r.Journal.Failed(k, attempts, err.Error())
		if attempts < p.MaxAttempts {
			unitsRetried.Inc()
			if serr := p.Sleep(ctx, p.Delay(k, attempts)); serr != nil {
				return Unit{Key: k}, serr
			}
		}
	}
	if lastErr == nil {
		// The journal said the budget was already spent before this
		// process saw a single failure.
		lastErr = fmt.Errorf("checkpoint: retry budget exhausted in a previous run")
	}

	unitsQuarantined.Inc()
	note := fmt.Sprintf("quarantined after %d attempts: %v", attempts, lastErr)
	if salvage == nil {
		r.Journal.Quarantined(k, attempts, "dropped", note, nil)
		return Unit{Key: k, Quarantined: true, Rung: "dropped", Note: note, Attempts: attempts},
			fmt.Errorf("%w: %s: %v", ErrUnitDropped, k, lastErr)
	}
	payload, rung, serr := salvage(lastErr)
	if serr != nil {
		note = fmt.Sprintf("%s; salvage failed: %v", note, serr)
		r.Journal.Quarantined(k, attempts, "dropped", note, nil)
		return Unit{Key: k, Quarantined: true, Rung: "dropped", Note: note, Attempts: attempts},
			fmt.Errorf("%w: %s: %v", ErrUnitDropped, k, serr)
	}
	r.Journal.Quarantined(k, attempts, rung, note, payload)
	return Unit{Key: k, Payload: payload, Quarantined: true, Rung: rung, Note: note, Attempts: attempts}, nil
}
