package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"lvf2/internal/chaostest"
	"lvf2/internal/faultinject"
	"lvf2/internal/mc"
)

// TestChaosFleetChurn is the fleet-churn chaos suite (the acceptance
// suite of DESIGN.md §17). Each seed expands deterministically into a
// script of membership events — graceful joins, graceful drains with
// key handoff, crash-leaves with operator-confirmed epoch bumps,
// kill/restart cycles — interleaved with concurrent client traffic
// over faulty peer links. The invariants, on every client-facing
// response across every epoch:
//
//   - the status is 200, no matter which replicas are mid-join,
//     mid-drain, dead or partitioned,
//   - the body is bit-identical to the single-process oracle:
//     reconfiguration may move where a model is fitted, never what
//     comes back,
//   - within one anti-entropy round of each rebalance, every live
//     replica serves ≥90% of its owned keys warm (no refits for keys
//     the fleet already knows),
//   - no handler on any replica generation ever panics.
func TestChaosFleetChurn(t *testing.T) {
	chaostest.Suite{Base: 5000, Stride: 11, Count: 3}.Run(t, runChurnChaosScript)
}

// churnFaults is the fault mix applied during traffic phases. Membership
// operations run quiet (an operator reconfigures when the fleet is
// reachable); the crash-leave composite exercises the non-quiet path.
var churnFaults = faultinject.NetFaults{
	PErrBefore:   0.06,
	PDropAfter:   0.04,
	PCorruptBody: 0.06,
	PShortBody:   0.04,
	PStall:       0.02,
	Stall:        5 * time.Millisecond,
}

func runChurnChaosScript(t *testing.T, run *chaostest.Record) {
	rng := mc.NewRNG(run.Seed)
	ft := newFleetTransport()
	faults := faultinject.NewFaultTransport(ft, churnFaults, rng.Uint64())
	// f.doc is the operator's latest membership document. Churn
	// replicas run without snapshot stores.
	f := newTestFleet(t, nil, ft, faults, nil)
	f.doc = fleetMembers(0, "a", "b", "c")
	for _, m := range f.doc.Members {
		f.boot(m.ID, f.doc)
	}
	nextID := len(f.doc.Members)
	ctx := context.Background()
	grid := replGridURLs()

	// quiet clears peer-link faults (and partitions) for a membership
	// operation; noisy restores the chaos mix.
	quiet := func() {
		faults.SetFaults(faultinject.NetFaults{})
		faults.SetPartition()
	}
	noisy := func() { faults.SetFaults(churnFaults) }
	anyLive := func() *Server { return f.server(f.live()[0]) }

	// checkWarmth enforces the post-rebalance invariant: one probe round,
	// one anti-entropy round, then every live replica must serve ≥90% of
	// its owned grid keys warm.
	checkWarmth := func(event string) {
		quiet()
		f.probeAll(ctx)
		for _, id := range f.live() {
			f.server(id).AntiEntropyOnce(ctx)
		}
		for _, id := range f.live() {
			s := f.server(id)
			var owned []string
			for _, u := range grid {
				if ownerOf(t, s, u) == id {
					owned = append(owned, u)
				}
			}
			if len(owned) == 0 {
				continue // tiny fleets can leave a member with no grid keys
			}
			before := s.cache.ModelStats()
			for _, u := range owned {
				f.expectOracle(t, event+": owned replay", id, u)
			}
			after := s.cache.ModelStats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if hits+misses > 0 && float64(hits)/float64(hits+misses) < 0.9 {
				t.Fatalf("%s: replica %s warm-hit ratio %d/%d < 0.9 one anti-entropy round after the rebalance",
					event, id, hits, hits+misses)
			}
		}
		noisy()
	}

	// bumpDoc returns the operator's next document: one epoch past the
	// highest the fleet has seen (drains advance it behind the
	// operator's back).
	bumpDoc := func(members []Peer) Membership {
		high := f.doc.Epoch
		for _, id := range f.live() {
			if e := f.server(id).repl.epoch(); e > high {
				high = e
			}
		}
		return Membership{Epoch: high + 1, Members: members}
	}

	// outagePass serves the full grid through the survivors while a
	// replica is down: every answer must stay 200 and oracle-identical,
	// and the local fallbacks it forces are what keep the victim's keys
	// warm somewhere in the fleet for the recovery that follows.
	outagePass := func(event string) {
		survivors := f.live()
		for i, u := range grid {
			f.expectOracle(t, event+" outage", survivors[i%len(survivors)], u)
		}
	}

	// Composite operations. Each models one operator runbook entry.

	// join: a brand-new replica enters via the graceful-join sequence.
	join := func() {
		id := fmt.Sprintf("j%d", nextID)
		nextID++
		quiet()
		doc := bumpDoc(append(f.doc.clone().Members, Peer{ID: id, URL: replURL(id)}))
		s := f.boot(id, doc)
		run.Step("join", id, "at epoch", doc.Epoch)
		if n := s.JoinFleet(ctx); n == 0 {
			t.Fatalf("join %s: warm-seeded zero models from the incumbents", id)
		}
		f.doc = doc
		noisy()
		checkWarmth("join " + id)
	}

	// drain: a live replica hands off its keys and leaves gracefully.
	drain := func() {
		targets := f.live()
		victim := targets[rng.Intn(len(targets))]
		quiet()
		run.Step("drain", victim)
		rec, body := postJSON(t, f.handler(victim), "/v1/fleet/drain", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("drain %s = %d: %s", victim, rec.Code, body)
		}
		resp := decode[drainResponse](t, body)
		// The drained replica keeps serving until the operator retires
		// it; one last query proves it still answers, then it goes away.
		if recc, _ := get(t, f.handler(victim), grid[rng.Intn(len(grid))]); recc.Code != http.StatusOK {
			t.Fatalf("drained replica %s refused a client query: %d", victim, recc.Code)
		}
		f.kill(victim)
		// The operator adopts the survivors' post-drain document rather
		// than inventing a conflicting one.
		rec, body = get(t, anyLive().Handler(), "/v1/fleet/membership")
		if rec.Code != http.StatusOK {
			t.Fatalf("survivor membership GET = %d", rec.Code)
		}
		f.doc = decode[Membership](t, body)
		if f.doc.Epoch != resp.Epoch {
			t.Fatalf("survivor membership epoch = %d, drain reported %d", f.doc.Epoch, resp.Epoch)
		}
		noisy()
		checkWarmth("drain " + victim)
	}

	// crashLeave: kill -9, survivors absorb the outage via local
	// fallback, then the operator confirms the leave with an epoch bump.
	crashLeave := func() {
		targets := f.live()
		victim := targets[rng.Intn(len(targets))]
		run.Step("crash_leave", victim)
		f.kill(victim)
		// Survivors take the full grid during the outage — victim-owned
		// keys land as local fallbacks, which is what keeps them warm for
		// the epoch bump that follows.
		outagePass("crash-leave")
		// Operator confirms the crash-leave: shrunk document, one epoch up.
		quiet()
		var rest []Peer
		for _, m := range f.doc.Members {
			if m.ID != victim {
				rest = append(rest, m)
			}
		}
		doc := bumpDoc(rest)
		rec, body := postMembershipDoc(t, anyLive().Handler(), doc)
		if rec.Code != http.StatusOK {
			t.Fatalf("crash-leave epoch bump = %d: %s", rec.Code, body)
		}
		f.probeAll(ctx) // spread the bump fleet-wide
		f.doc = doc
		noisy()
		checkWarmth("crash-leave " + victim)
	}

	// killRestart: same replica dies and comes back at the same epoch —
	// membership does not change, the restart protocol recovers warmth.
	killRestart := func() {
		targets := f.live()
		victim := targets[rng.Intn(len(targets))]
		run.Step("kill_restart", victim)
		f.kill(victim)
		outagePass("restart") // survivors absorb the full grid while it is down
		quiet()
		f.restart(victim)
		noisy()
		checkWarmth("restart " + victim)
	}

	// Seed warmth: one quiet grid pass so epoch-0 owners hold their keys.
	quiet()
	for _, u := range grid {
		f.expectOracle(t, "seed pass", f.live()[0], u)
	}
	noisy()

	for step := 0; step < 12; step++ {
		switch p := rng.Float64(); {
		case p < 0.45:
			f.queryBurst(t, run, rng, 4+rng.Intn(4))
		case p < 0.55: // asymmetric partition toggle among live replicas
			var blocked []string
			for _, id := range f.live() {
				if rng.Float64() < 0.3 {
					blocked = append(blocked, replHost(id))
				}
			}
			faults.SetPartition(blocked...)
			run.Step("set_partition", strings.Join(blocked, ","))
		case p < 0.62: // breaker clock jump
			d := time.Duration(200+rng.Intn(3000)) * time.Millisecond
			f.clk.Advance(d)
			run.Step("advance_clock", d)
		case p < 0.72:
			if len(f.live()) < 5 {
				join()
			} else {
				f.queryBurst(t, run, rng, 4)
			}
		case p < 0.82:
			if len(f.live()) > 2 {
				drain()
			} else {
				join()
			}
		case p < 0.92:
			if len(f.live()) > 2 {
				crashLeave()
			} else {
				f.queryBurst(t, run, rng, 4)
			}
		default:
			killRestart()
		}
		if t.Failed() {
			return
		}
	}

	// Epilogue: heal, converge, and prove the final fleet is coherent —
	// full grid 200 and oracle-identical through every live replica, all
	// replicas on one epoch, warm everywhere after one anti-entropy round.
	run.Step("epilogue")
	quiet()
	f.probeAll(ctx)
	for _, id := range f.live() {
		f.server(id).AntiEntropyOnce(ctx)
	}
	epochs := map[uint64]bool{}
	for _, id := range f.live() {
		epochs[f.server(id).repl.epoch()] = true
	}
	if len(epochs) != 1 {
		t.Fatalf("fleet did not converge on one epoch: %v", epochs)
	}
	for i, u := range grid {
		f.expectOracle(t, "epilogue", f.live()[i%len(f.live())], u)
	}
	checkWarmth("epilogue")

	f.checkNoPanics(t)
}
