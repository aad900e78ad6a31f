package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lvf2/internal/modelcache"
)

// fleetMembers builds a membership document over replica ids with the
// harness's synthetic URLs.
func fleetMembers(epoch uint64, ids ...string) Membership {
	m := Membership{Epoch: epoch}
	for _, id := range ids {
		m.Members = append(m.Members, Peer{ID: id, URL: replURL(id)})
	}
	return m
}

// postJSON drives one JSON POST through a handler.
func postJSON(t testing.TB, h http.Handler, url string, body []byte) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// postMembershipDoc CAS-posts a membership document to one replica.
func postMembershipDoc(t testing.TB, h http.Handler, m Membership) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return postJSON(t, h, "/v1/fleet/membership", b)
}

// warmGridLocally computes the full replication grid on one replica via
// marked requests (which never forward), so its cache holds every key
// regardless of ownership.
func warmGridLocally(t testing.TB, s *Server) {
	t.Helper()
	for _, u := range replGridURLs() {
		req := httptest.NewRequest(http.MethodGet, u, nil)
		req.Header.Set(forwardedFromHeader, "test")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm query %s = %d", u, rec.Code)
		}
	}
}

// driveGrid sends the full grid through s as ordinary client traffic,
// failing on any non-200.
func driveGrid(t testing.TB, s *Server) {
	t.Helper()
	for _, u := range replGridURLs() {
		rec, body := get(t, s.Handler(), u)
		if rec.Code != http.StatusOK {
			t.Fatalf("grid query %s = %d: %s", u, rec.Code, body)
		}
	}
}

// ----------------------------------------------------------- document

func TestParseMembership(t *testing.T) {
	m, err := ParseMembership([]byte(goodMembershipDoc))
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 3 || len(m.Members) != 2 {
		t.Fatalf("parsed %+v", m)
	}
	if m.Members[0].URL != "http://replica-a" {
		t.Fatalf("trailing slash survived: %q", m.Members[0].URL)
	}
	if !m.Has("a") || m.Has("z") {
		t.Fatal("Has is wrong")
	}

	for name, doc := range badMembershipDocs {
		if _, err := ParseMembership([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// goodMembershipDoc and badMembershipDocs are the membership parser's
// unit-test table, shared with its fuzz target as seeds.
const goodMembershipDoc = `{"epoch": 3, "members": [
		{"id": "a", "url": "http://replica-a/"},
		{"id": "b", "url": "http://replica-b"}]}`

var badMembershipDocs = map[string]string{
	"no_members": `{"epoch": 1, "members": []}`,
	"no_id":      `{"epoch": 1, "members": [{"url": "http://x"}]}`,
	"dup_id":     `{"epoch": 1, "members": [{"id":"a","url":"http://x"},{"id":"a","url":"http://y"}]}`,
	"dup_url":    `{"epoch": 1, "members": [{"id":"a","url":"http://x"},{"id":"b","url":"http://x"}]}`,
	"bad_scheme": `{"epoch": 1, "members": [{"id":"a","url":"ftp://x"}]}`,
	"url_path":   `{"epoch": 1, "members": [{"id":"a","url":"http://x/api"}]}`,
	"not_json":   `epoch: 1`,
}

// FuzzParseMembership: a document ParseMembership accepts re-validates,
// and survives a JSON round trip unchanged.
func FuzzParseMembership(f *testing.F) {
	f.Add([]byte(goodMembershipDoc))
	for _, doc := range badMembershipDocs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := ParseMembership(doc)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted document fails Validate: %v", err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseMembership(b)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, m)
		}
	})
}

func TestMembershipEqual(t *testing.T) {
	a := fleetMembers(2, "a", "b")
	b := fleetMembers(2, "b", "a") // order must not matter
	if !a.equal(b) {
		t.Fatal("order-permuted documents compare unequal")
	}
	if a.equal(fleetMembers(3, "a", "b")) {
		t.Fatal("different epochs compare equal")
	}
	if a.equal(fleetMembers(2, "a", "c")) {
		t.Fatal("different member sets compare equal")
	}
}

// --------------------------------------------------------- CAS endpoint

// TestMembershipCAS pins the admin endpoint's contract: GET returns the
// installed document; POST accepts exactly epoch current+1, answers an
// identical redelivery idempotently, and rejects everything else with a
// 409 carrying the authoritative document.
func TestMembershipCAS(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b", "c"}, ft, ft, nil)
	a := f.server("a")

	rec, body := get(t, a.Handler(), "/v1/fleet/membership")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET membership = %d: %s", rec.Code, body)
	}
	cur := decode[Membership](t, body)
	if cur.Epoch != 0 || len(cur.Members) != 3 {
		t.Fatalf("boot membership = %+v", cur)
	}

	// Epoch skip: rejected with the current document in the body.
	rec, body = postMembershipDoc(t, a.Handler(), fleetMembers(2, "a", "b"))
	if rec.Code != http.StatusConflict {
		t.Fatalf("epoch-skip POST = %d, want 409", rec.Code)
	}
	conflict := decode[membershipConflict](t, body)
	if conflict.Current.Epoch != 0 {
		t.Fatalf("409 body carries epoch %d, want 0", conflict.Current.Epoch)
	}
	if a.repl.epoch() != 0 {
		t.Fatal("rejected POST still moved the epoch")
	}

	// The valid successor: epoch 1, c dropped.
	next := fleetMembers(1, "a", "b")
	rec, body = postMembershipDoc(t, a.Handler(), next)
	if rec.Code != http.StatusOK {
		t.Fatalf("CAS POST = %d: %s", rec.Code, body)
	}
	if a.repl.epoch() != 1 {
		t.Fatalf("epoch after CAS = %d, want 1", a.repl.epoch())
	}
	v := a.repl.view()
	if got := fmt.Sprint(v.ring.Members()); got != "[a b]" {
		t.Fatalf("ring members after CAS = %s", got)
	}
	if v.prev == nil {
		t.Fatal("CAS adoption did not open a transition window")
	}
	if n := a.repl.transitions.Value(); n != 1 {
		t.Fatalf("transitions counter = %d, want 1", n)
	}

	// Identical redelivery: acknowledged, no second transition.
	rec, _ = postMembershipDoc(t, a.Handler(), next)
	if rec.Code != http.StatusOK {
		t.Fatalf("redelivered POST = %d, want 200", rec.Code)
	}
	if n := a.repl.transitions.Value(); n != 1 {
		t.Fatalf("redelivery moved the transition counter to %d", n)
	}

	// Stale epoch: rejected.
	rec, _ = postMembershipDoc(t, a.Handler(), fleetMembers(0, "a", "b", "c"))
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale POST = %d, want 409", rec.Code)
	}

	// One anti-entropy round closes the transition window.
	a.AntiEntropyOnce(context.Background())
	if a.repl.view().prev != nil {
		t.Fatal("anti-entropy round left the transition window open")
	}
}

// --------------------------------------------------- epoch propagation

// TestEpochPropagationViaForwarding: a replica that adopted a newer
// membership stamps its epoch on forwarded requests; the lagging owner
// pulls the newer document before serving. No probe loop involved.
func TestEpochPropagationViaForwarding(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a, b := f.server("a"), f.server("b")

	// Only a learns of epoch 1 (same members, pure version bump).
	rec, _ := postMembershipDoc(t, a.Handler(), fleetMembers(1, "a", "b"))
	if rec.Code != http.StatusOK {
		t.Fatal("CAS on a failed")
	}
	if b.repl.epoch() != 0 {
		t.Fatal("b learned the epoch without any traffic")
	}
	// Any forwarded request from a carries the epoch; b adopts in-line.
	rec, _ = get(t, a.Handler(), urlOwnedBy(t, a, "b"))
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded query = %d", rec.Code)
	}
	if b.repl.epoch() != 1 {
		t.Fatalf("b epoch after forwarded request = %d, want 1", b.repl.epoch())
	}
}

// TestEpochPropagationViaProbe: the /readyz probe body advertises the
// epoch, so a lagging replica catches up on its next probe round even
// with zero client traffic.
func TestEpochPropagationViaProbe(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a, b := f.server("a"), f.server("b")

	rec, _ := postMembershipDoc(t, a.Handler(), fleetMembers(1, "a", "b"))
	if rec.Code != http.StatusOK {
		t.Fatal("CAS on a failed")
	}
	b.ProbePeersOnce(context.Background())
	if b.repl.epoch() != 1 {
		t.Fatalf("b epoch after probe round = %d, want 1", b.repl.epoch())
	}
	if a.repl.epoch() != 1 {
		t.Fatalf("a epoch moved to %d", a.repl.epoch())
	}
}

// ------------------------------------------------------- graceful join

// TestGracefulJoinWarmSeed runs the full join sequence: a new replica
// boots with an epoch-1 document including itself, announces it to the
// incumbents, pulls its newly-owned ranges from their previous owners,
// and serves them warm from the first request.
func TestGracefulJoinWarmSeed(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a, b := f.server("a"), f.server("b")
	driveGrid(t, a) // warm the epoch-0 fleet: every key sits with its owner

	// Boot d from the successor document. The harness fleet stays
	// untouched; d is wired onto the same transport.
	doc := fleetMembers(1, "a", "b", "d")
	cfg := Config{
		FitSamples: 300,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		now:        f.clk.Now,
		Replication: ReplicationOptions{
			SelfID:          "d",
			SelfURL:         replURL("d"),
			Membership:      &doc,
			ForwardTimeout:  2 * time.Second,
			ForwardAttempts: 2,
			RetryBase:       time.Millisecond,
			ProbeInterval:   time.Hour,
			Client:          f.client,
		},
	}
	d := New(cfg)
	if d.repl == nil {
		t.Fatal("membership boot did not enable replication")
	}
	if _, err := d.AddLibrary("testlib", testLibText(t, "testlib")); err != nil {
		t.Fatal(err)
	}
	d.Bootstrap()
	ft.set(replHost("d"), d.Handler())

	// While warming, load balancers must hold traffic.
	d.repl.warming.Store(true)
	rec, body := get(t, d.Handler(), "/readyz")
	if rec.Code != http.StatusServiceUnavailable || decode[readyzResponse](t, body).Status != "warming" {
		t.Fatalf("warming readyz = %d %s", rec.Code, body)
	}
	d.repl.warming.Store(false)

	n := d.JoinFleet(context.Background())
	if n == 0 {
		t.Fatal("join warm-seeded nothing")
	}
	// The announce moved the incumbents to epoch 1.
	if a.repl.epoch() != 1 || b.repl.epoch() != 1 {
		t.Fatalf("incumbent epochs after join = %d/%d, want 1/1", a.repl.epoch(), b.repl.epoch())
	}
	if got := fmt.Sprint(a.repl.view().ring.Members()); got != "[a b d]" {
		t.Fatalf("a's ring after join = %s", got)
	}

	// Every d-owned key must serve warm: minimal movement means each one
	// was owned (and warmed) by a or b at epoch 0 and travelled over in
	// the join pull.
	var dOwned []string
	for _, u := range replGridURLs() {
		if ownerOf(t, d, u) == "d" {
			dOwned = append(dOwned, u)
		}
	}
	if len(dOwned) == 0 {
		t.Fatal("grid has no d-owned URLs")
	}
	st := d.cache.ModelStats()
	for _, u := range dOwned {
		rec, _ := get(t, d.Handler(), u)
		if rec.Code != http.StatusOK {
			t.Fatalf("post-join query %s = %d", u, rec.Code)
		}
	}
	after := d.cache.ModelStats()
	if misses := after.Misses - st.Misses; misses != 0 {
		t.Fatalf("post-join replay of %d owned URLs recomputed %d keys; want all warm", len(dOwned), misses)
	}
}

// ------------------------------------------------------ graceful drain

// TestFleetDrainHandsOffKeys runs the graceful-leave sequence: the
// drained replica pushes every cached model to its next-epoch owner,
// the survivors adopt the shrunk membership, and the handed-off ranges
// stay warm — the whole fleet keeps answering 200 throughout.
func TestFleetDrainHandsOffKeys(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b", "c"}, ft, ft, nil)
	a, b, c := f.server("a"), f.server("b"), f.server("c")
	driveGrid(t, a) // every key warm at its epoch-0 owner

	rec, body := postJSON(t, c.Handler(), "/v1/fleet/drain", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("drain = %d: %s", rec.Code, body)
	}
	resp := decode[drainResponse](t, body)
	if resp.Epoch != 1 || resp.HandedOff == 0 || resp.PeersUpdated != 2 {
		t.Fatalf("drain response = %+v", resp)
	}
	if n := c.repl.handoffModels.Value(); int(n) != resp.HandedOff {
		t.Fatalf("handoff counter = %d, response says %d", n, resp.HandedOff)
	}
	if !c.repl.view().drained {
		t.Fatal("drained replica still thinks it is a member")
	}
	if a.repl.epoch() != 1 || b.repl.epoch() != 1 {
		t.Fatalf("survivor epochs = %d/%d, want 1/1", a.repl.epoch(), b.repl.epoch())
	}
	if got := fmt.Sprint(a.repl.view().ring.Members()); got != "[a b]" {
		t.Fatalf("survivor ring = %s", got)
	}

	// The drained replica's readyz stays 200 but flags the state.
	rec, body = get(t, c.Handler(), "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("drained readyz = %d", rec.Code)
	}
	if r := decode[readyzResponse](t, body); r.Status != "drained" || !r.Ring.Drained {
		t.Fatalf("drained readyz body = %s", body)
	}

	// Handed-off ranges serve warm: replaying the grid through a must
	// not trigger a single new fit anywhere in the fleet.
	missesBefore := a.cache.ModelStats().Misses + b.cache.ModelStats().Misses
	driveGrid(t, a)
	missesAfter := a.cache.ModelStats().Misses + b.cache.ModelStats().Misses
	if missesAfter != missesBefore {
		t.Fatalf("post-drain grid recomputed %d keys; handoff should have kept them warm", missesAfter-missesBefore)
	}

	// Drain is idempotent.
	rec, body = postJSON(t, c.Handler(), "/v1/fleet/drain", nil)
	if rec.Code != http.StatusOK || decode[drainResponse](t, body).Note == "" {
		t.Fatalf("second drain = %d %s", rec.Code, body)
	}

	// The drained replica still answers client traffic correctly — every
	// miss forwards to the current owner or computes locally.
	driveGrid(t, c)
}

// TestFleetDrainLastMemberRefused: the final member has nowhere to hand
// its keys; the drain is refused, the fleet document stands.
func TestFleetDrainLastMemberRefused(t *testing.T) {
	doc := fleetMembers(0, "a")
	cfg := Config{
		FitSamples: 300,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		Replication: ReplicationOptions{
			SelfID:     "a",
			SelfURL:    replURL("a"),
			Membership: &doc,
		},
	}
	s := New(cfg)
	if s.repl == nil {
		t.Fatal("single-member membership boot failed")
	}
	s.Bootstrap()
	rec, body := postJSON(t, s.Handler(), "/v1/fleet/drain", nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("last-member drain = %d: %s", rec.Code, body)
	}
	if s.repl.epoch() != 0 || s.repl.view().drained {
		t.Fatal("refused drain still mutated the fleet")
	}
}

// -------------------------------------------------------- anti-entropy

// TestAntiEntropyRepairsDivergence: a peer holds models this replica
// owns but lost; one digest-exchange round detects the divergence and
// re-seeds exactly once, after which repeated rounds are no-ops.
func TestAntiEntropyRepairsDivergence(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a, b := f.server("a"), f.server("b")
	warmGridLocally(t, b) // b holds everything, including a-owned keys

	if n := a.cache.ModelStats().Entries; n != 0 {
		t.Fatalf("a starts with %d entries", n)
	}
	repaired := a.AntiEntropyOnce(context.Background())
	if repaired == 0 {
		t.Fatal("anti-entropy repaired nothing")
	}
	if n := a.repl.aeRepaired.Value(); int(n) != repaired {
		t.Fatalf("aeRepaired counter = %d, want %d", n, repaired)
	}
	if a.repl.aeRounds.Value() != 1 {
		t.Fatalf("aeRounds = %d, want 1", a.repl.aeRounds.Value())
	}

	// Owned keys now serve warm.
	st := a.cache.ModelStats()
	for _, u := range replGridURLs() {
		if ownerOf(t, a, u) == "a" {
			rec, _ := get(t, a.Handler(), u)
			if rec.Code != http.StatusOK {
				t.Fatalf("post-repair query %s = %d", u, rec.Code)
			}
		}
	}
	if after := a.cache.ModelStats(); after.Misses != st.Misses {
		t.Fatalf("post-repair replay recomputed %d keys", after.Misses-st.Misses)
	}

	// Convergence: the next round finds identical digests and moves nothing.
	if again := a.AntiEntropyOnce(context.Background()); again != 0 {
		t.Fatalf("second round repaired %d models; want 0", again)
	}
}

// ------------------------------------------------------- config watch

// TestMembershipConfigWatch: an operator edit of the membership file is
// picked up by the poll (mtime + SHA-256), adopted locally and announced
// to the fleet; garbage in the file is rejected without touching the
// installed document.
func TestMembershipConfigWatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "membership.json")
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, func(id string, c *Config) {
		if id == "a" {
			c.Replication.MembershipPath = path
		}
	})
	a, b := f.server("a"), f.server("b")
	ctx := context.Background()

	a.CheckMembershipFile(ctx) // no file yet: a quiet no-op
	if a.repl.epoch() != 0 {
		t.Fatal("missing file moved the epoch")
	}

	doc, err := json.Marshal(fleetMembers(1, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	a.CheckMembershipFile(ctx)
	if a.repl.epoch() != 1 {
		t.Fatalf("a epoch after watch = %d, want 1", a.repl.epoch())
	}
	if b.repl.epoch() != 1 {
		t.Fatalf("watch adoption was not announced: b epoch = %d", b.repl.epoch())
	}
	// The adopted document is persisted back (restart boots at epoch 1).
	m, err := LoadMembershipFile(path)
	if err != nil || m.Epoch != 1 {
		t.Fatalf("persisted document = %+v, %v", m, err)
	}

	// Re-polling the same content is a no-op; garbage is rejected.
	a.CheckMembershipFile(ctx)
	if a.repl.epoch() != 1 {
		t.Fatal("re-poll moved the epoch")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	a.CheckMembershipFile(ctx)
	if a.repl.epoch() != 1 {
		t.Fatal("garbage file moved the epoch")
	}
}

// -------------------------------------------------------------- jitter

// TestLoopJitter pins the seeded startup jitter: deterministic per
// (replica, salt), inside [0, interval), and actually spread — distinct
// replicas and distinct loops must not fire in lockstep.
func TestLoopJitter(t *testing.T) {
	const interval = 2 * time.Second
	ids := []string{"replica-a", "replica-b", "replica-c", "replica-d"}
	seen := map[time.Duration]bool{}
	for _, id := range ids {
		j := loopJitter(id, probeJitterSalt, interval)
		if j != loopJitter(id, probeJitterSalt, interval) {
			t.Fatalf("jitter for %s is not deterministic", id)
		}
		if j < 0 || j >= interval {
			t.Fatalf("jitter for %s = %v outside [0, %v)", id, j, interval)
		}
		seen[j] = true
	}
	if len(seen) != len(ids) {
		t.Fatalf("only %d distinct jitters across %d replicas", len(seen), len(ids))
	}
	// Distinct loops of one replica land on distinct phases too.
	probe := loopJitter("replica-a", probeJitterSalt, interval)
	ae := loopJitter("replica-a", antiEntropyJitterSalt, interval)
	watch := loopJitter("replica-a", membershipJitterSalt, interval)
	if probe == ae || probe == watch || ae == watch {
		t.Fatalf("loop phases collide: probe=%v ae=%v watch=%v", probe, ae, watch)
	}
	if loopJitter("replica-a", probeJitterSalt, 0) != 0 {
		t.Fatal("zero interval must mean zero jitter")
	}
}

// --------------------------------------------------- snapshot size caps

// TestPeerSnapshotMaxBytes pins the bounded export: a capped GET stays
// under the cap, keeps the newest entries, still decodes, and counts the
// truncation.
func TestPeerSnapshotMaxBytes(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a := f.server("a")
	warmGridLocally(t, a)

	rec, full := get(t, a.Handler(), "/v1/peer/snapshot?owner=b")
	if rec.Code != http.StatusOK {
		t.Fatalf("uncapped export = %d", rec.Code)
	}
	fullEntries, err := modelcache.DecodeSnapshot(full)
	if err != nil || len(fullEntries) < 2 {
		t.Fatalf("uncapped export: %d entries, %v", len(fullEntries), err)
	}

	cap := len(full) - 1 // force at least one entry out
	rec, capped := get(t, a.Handler(), fmt.Sprintf("/v1/peer/snapshot?owner=b&max_bytes=%d", cap))
	if rec.Code != http.StatusOK {
		t.Fatalf("capped export = %d", rec.Code)
	}
	if len(capped) > cap {
		t.Fatalf("capped export is %d bytes, cap %d", len(capped), cap)
	}
	cappedEntries, err := modelcache.DecodeSnapshot(capped)
	if err != nil {
		t.Fatalf("capped export does not decode: %v", err)
	}
	if len(cappedEntries) == 0 || len(cappedEntries) >= len(fullEntries) {
		t.Fatalf("capped export kept %d of %d entries", len(cappedEntries), len(fullEntries))
	}
	// Newest-first: the kept entries are the tail of the full export.
	offset := len(fullEntries) - len(cappedEntries)
	for i, e := range cappedEntries {
		if e.Key != fullEntries[offset+i].Key {
			t.Fatalf("capped export is not the newest suffix (entry %d)", i)
		}
	}
	if n := a.repl.snapTruncated.Value(); n == 0 {
		t.Fatal("truncation counter did not move")
	}
	rec, _ = get(t, a.Handler(), "/v1/peer/snapshot?owner=b&max_bytes=0")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("max_bytes=0 = %d, want 400", rec.Code)
	}
}

// TestFetchSnapshotClientSideCap pins the client-side guard: a donor
// that ignores the cap — huge declared Content-Length or a huge
// undeclared body — is rejected before its payload can balloon the
// puller's heap.
func TestFetchSnapshotClientSideCap(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, func(id string, c *Config) {
		c.Replication.SnapshotMaxBytes = 4 << 10
	})
	a := f.server("a")

	// A rogue donor host that streams 1 MiB regardless of max_bytes.
	rogue := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(bytes.Repeat([]byte{0xAB}, 1<<20))
	})
	ft.set("replica-rogue", rogue)
	_, err := a.repl.fetchSnapshotSlice(context.Background(), Peer{ID: "rogue", URL: "http://replica-rogue"})
	if err == nil {
		t.Fatal("oversize donor body was accepted")
	}
}
