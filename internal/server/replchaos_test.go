package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lvf2/internal/chaostest"
	"lvf2/internal/faultinject"
	"lvf2/internal/mc"
)

// TestChaosReplicatedServing is the replicated-serving chaos suite.
// Each seed expands deterministically into a fault script replayed
// against a three-replica in-process fleet whose peer links run through
// a FaultTransport (refused connections, dropped responses, corrupted
// and truncated bodies, stalls, asymmetric partitions) while replicas
// are killed and restarted mid-flight. The invariant checked on every
// single client-facing response:
//
//   - the status is 200 — never a 5xx, no matter which replicas are
//     dead or partitioned (a single-replica outage must be invisible),
//   - the body is bit-identical to the single-process oracle: forwarding,
//     checksum-guarded relay and local fallback may change *where* a
//     model is fitted but never *what* comes back,
//   - no handler on any replica, past or present, ever panics.
//
// The deterministic epilogue is the acceptance sequence: warm the
// fleet, kill one replica, prove zero 5xx and oracle-identical bodies
// throughout the outage, restart the victim, and prove it recovers ≥90%
// of its owned keys warm via the peer snapshot seed.
func TestChaosReplicatedServing(t *testing.T) {
	chaostest.Suite{Base: 2000, Stride: 7, Count: 3}.Run(t, runReplChaosScript)
}

func runReplChaosScript(t *testing.T, run *chaostest.Record) {
	rng := mc.NewRNG(run.Seed)
	ids := []string{"a", "b", "c"}
	ft := newFleetTransport()
	faults := faultinject.NewFaultTransport(ft, faultinject.NetFaults{
		PErrBefore:   0.08,
		PDropAfter:   0.05,
		PCorruptBody: 0.08,
		PShortBody:   0.05,
		PStall:       0.03,
		Stall:        5 * time.Millisecond,
	}, rng.Uint64())
	f := newTestFleet(t, ids, ft, faults, nil)
	ctx := context.Background()

	grid := replGridURLs()
	dead := "" // at most one replica down at a time

	for step := 0; step < 30; step++ {
		switch p := rng.Float64(); {
		case p < 0.55: // concurrent traffic burst against random live replicas
			f.queryBurst(t, run, rng, 4)
		case p < 0.65: // asymmetric partition toggle
			var blocked []string
			for _, id := range f.live() {
				if rng.Float64() < 0.4 {
					blocked = append(blocked, replHost(id))
				}
			}
			faults.SetPartition(blocked...)
			run.Step("set_partition", strings.Join(blocked, ","))
		case p < 0.75: // breaker clock jump
			d := time.Duration(200+rng.Intn(3000)) * time.Millisecond
			f.clk.Advance(d)
			run.Step("advance_clock", d)
		case p < 0.85: // health-probe tick on every live replica
			run.Step("probe_tick")
			f.probeAll(ctx)
		case p < 0.92: // periodic snapshot tick on one live replica
			targets := f.live()
			id := targets[rng.Intn(len(targets))]
			err := f.server(id).SaveSnapshot()
			note := id + ": ok"
			if err != nil {
				note = id + ": " + err.Error()
			}
			run.Step("save_snapshot", note)
		default: // kill -9 one replica, or bring the dead one back
			if dead == "" {
				targets := f.live()
				dead = targets[rng.Intn(len(targets))]
				f.kill(dead)
				run.Step("kill", dead)
			} else {
				f.restart(dead)
				run.Step("restart", dead)
				dead = ""
			}
		}
		if t.Failed() {
			return
		}
	}

	// ------------------------------------------------- acceptance epilogue

	// Heal everything: no partitions, full fleet, fresh probe round.
	run.Step("epilogue_heal")
	faults.SetPartition()
	if dead != "" {
		f.restart(dead)
		dead = ""
	}
	f.probeAll(ctx)

	// Warm pass: the whole grid through replica a. Every answer must
	// already be oracle-identical, faults and all.
	run.Step("epilogue_warm_pass")
	for _, u := range grid {
		f.expectOracle(t, "warm pass", "a", u)
	}

	// Kill one replica and replay the full grid through the survivors:
	// zero 5xx (zero non-200, in fact) and every body bit-identical.
	victim := ids[rng.Intn(len(ids))]
	run.Step("epilogue_kill", victim)
	f.kill(victim)
	survivors := f.live()
	var victimOwned []string
	for _, u := range grid {
		if ownerOf(t, f.server(survivors[0]), u) == victim {
			victimOwned = append(victimOwned, u)
		}
	}
	if len(victimOwned) == 0 {
		t.Fatalf("ring assigned no grid keys to %s; widen the grid", victim)
	}
	for i, u := range grid {
		f.expectOracle(t, "outage pass (a single-replica outage must be invisible)", survivors[i%len(survivors)], u)
	}

	// Restart the victim. Warm-seed must pull its owned slice back from
	// the survivors' fallback caches, and replaying its owned URLs must
	// be ≥90% warm — no refits for keys the fleet already knows.
	run.Step("epilogue_restart", victim)
	restarted := f.restart(victim)
	if n := restarted.repl.warmSeeded.Value(); n == 0 {
		t.Fatal("restart warm-seed restored zero models from the survivors")
	}
	before := restarted.cache.ModelStats()
	for _, u := range victimOwned {
		f.expectOracle(t, "post-restart replay", victim, u)
	}
	after := restarted.cache.ModelStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 || float64(hits)/float64(hits+misses) < 0.9 {
		t.Fatalf("post-restart warm-hit ratio %d/%d < 0.9: warm-seed did not recover the owned slice", hits, hits+misses)
	}

	f.checkNoPanics(t)
}

// queryBurst sends n random grid queries at random live replicas, all
// at once, and checks every answer with checkFleetResponse.
func (f *testFleet) queryBurst(t *testing.T, run *chaostest.Record, rng *mc.RNG, n int) {
	grid := replGridURLs()
	targets := f.live()
	urls := make([]string, n)
	vias := make([]string, n)
	hs := make([]http.Handler, n)
	for i := range urls {
		urls[i] = grid[rng.Intn(len(grid))]
		vias[i] = targets[rng.Intn(len(targets))]
		hs[i] = f.handler(vias[i])
	}
	run.Step("query", "via", strings.Join(vias, ","), urls)
	for i, rec := range burst(urls, func(i int) http.Handler { return hs[i] }) {
		checkFleetResponse(t, urls[i], vias[i], rec)
	}
}

// checkFleetResponse enforces the per-response fleet invariant: always
// 200, always the oracle's bytes, and any forward tag a known outcome.
func checkFleetResponse(t *testing.T, url, via string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Errorf("GET %s via %s: status %d (fleet must never surface a fault): %s", url, via, rec.Code, rec.Body.Bytes())
		return
	}
	if d := chaostest.Diff(rec.Body.Bytes(), oracleBody(t, url)); d != "" {
		t.Errorf("GET %s via %s: body differs from single-process oracle: %s", url, via, d)
	}
	switch fwd := rec.Header().Get(forwardHeader); fwd {
	case "", forwardOutcomeForwarded, forwardOutcomeFallback:
	default:
		t.Errorf("GET %s via %s: unknown %s value %q", url, via, forwardHeader, fwd)
	}
}

// expectOracle GETs url through replica via and stops the test unless
// the answer is a 200 carrying the oracle's bytes.
func (f *testFleet) expectOracle(t *testing.T, event, via, url string) {
	t.Helper()
	rec, body := get(t, f.handler(via), url)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: GET %s via %s: code %d: %s", event, url, via, rec.Code, body)
	}
	if d := chaostest.Diff(body, oracleBody(t, url)); d != "" {
		t.Fatalf("%s: GET %s via %s: body differs from single-process oracle: %s", event, url, via, d)
	}
}

// checkNoPanics asserts that no handler on any replica generation ever
// panicked.
func (f *testFleet) checkNoPanics(t *testing.T) {
	t.Helper()
	for i, srv := range f.every {
		if n := srv.metrics.Panics.Value(); n != 0 {
			t.Errorf("replica generation %d recovered %d handler panics, want 0", i, n)
		}
	}
}
