package checkpoint

import (
	"context"
	"errors"

	"lvf2/internal/pool"
)

// Unit is the resolved outcome of one work unit.
type Unit struct {
	Key Key
	// Payload is the serialised unit result, or the salvage emission of
	// a quarantined unit.
	Payload []byte
	// Restored reports the result came from the journal, not a fresh
	// computation.
	Restored bool
	// Quarantined reports the unit's run failed and Payload is the
	// degraded salvage emission.
	Quarantined bool
	// Rung names the degradation rung that produced a quarantined
	// payload.
	Rung string
	// Note carries provenance (QuarantineNote of the failure cause for
	// quarantined units), destined for the Liberty ocv_fallback_note_*
	// attribute.
	Note string
}

// QuarantineNote is the provenance note journaled with a unit
// quarantined because of cause. Journal.Do and the distributed
// coordinator both write it, so a library carries the same note
// whichever process ran the unit.
func QuarantineNote(cause string) string { return "quarantined: " + cause }

// Do resolves one unit. A nil journal is valid: units then run and
// quarantine without being journaled.
//
//   - If the journal already holds k (done or quarantined), its payload
//     is returned with Restored set and run is never invoked — the
//     no-recompute guarantee of resume.
//   - Otherwise run is invoked once. A panic inside run is recovered
//     into an error. On success the payload is journaled as done.
//   - On failure the unit is poison: salvage produces the degraded
//     stand-in payload and the rung that made it, which is journaled as
//     quarantined with QuarantineNote(cause), so the rest of the run —
//     and every future resume — proceeds without re-touching the unit.
//     run is never retried: it is pure (see below), so a second run
//     would fail exactly as the first did.
//
// Context cancellation is not a unit fault: Do returns the context
// error without journaling anything, leaving the unit runnable after
// resume. It is the only error Do returns.
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
func (j *Journal) Do(ctx context.Context, k Key, run func(context.Context) ([]byte, error), salvage func(cause error) (payload []byte, rung string)) (Unit, error) {
	if rec, ok := j.Lookup(k); ok {
		unitsRestored.Inc()
		return Unit{Key: k, Payload: rec.Payload, Restored: true, Quarantined: rec.Status == StatusQuarantined,
			Rung: rec.Rung, Note: rec.Note}, nil
	}
	if err := ctx.Err(); err != nil {
		return Unit{Key: k}, err
	}
	var payload []byte
	err := pool.Protect(k.String(), func() (rerr error) {
		payload, rerr = run(ctx)
		return rerr
	})
	if err == nil {
		j.Done(k, payload)
		unitsDone.Inc()
		return Unit{Key: k, Payload: payload}, nil
	}
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		// The run observed our cancellation, not a unit fault.
		return Unit{Key: k}, cerr
	}
	unitsQuarantined.Inc()
	note := QuarantineNote(err.Error())
	payload, rung := salvage(err)
	j.Quarantined(k, rung, note, payload)
	return Unit{Key: k, Payload: payload, Quarantined: true, Rung: rung, Note: note}, nil
}
