package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lvf2/internal/faultinject"
	"lvf2/internal/modelcache"
)

// ------------------------------------------------------------ fleet harness

// replHost is the stable fake host of one replica. Using synthetic
// hosts instead of httptest sockets keeps addresses identical across
// kill/restart cycles and keeps the whole fleet in-process and
// deterministic under -race.
func replHost(id string) string { return "replica-" + id }

func replURL(id string) string { return "http://" + replHost(id) }

// fleetTransport routes requests to per-host in-process handlers. A nil
// handler models a dead replica: connection refused. Handlers are
// swappable under the lock so a chaos script can kill and restart
// replicas mid-flight.
type fleetTransport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
}

func newFleetTransport() *fleetTransport {
	return &fleetTransport{handlers: map[string]http.Handler{}}
}

func (f *fleetTransport) set(host string, h http.Handler) {
	f.mu.Lock()
	f.handlers[host] = h
	f.mu.Unlock()
}

func (f *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	h := f.handlers[req.URL.Host]
	f.mu.Unlock()
	if h == nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("fleet: connection refused to %s (%s %s)", req.URL.Host, req.Method, req.URL.Path)
	}
	rec := httptest.NewRecorder()
	clone := req.Clone(req.Context())
	if clone.Body == nil {
		clone.Body = http.NoBody
	}
	h.ServeHTTP(rec, clone)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// testFleet is an in-process replica fleet sharing one routing
// transport, one hand-advanced breaker clock and per-replica MemFS
// snapshot stores that survive kill/restart.
type testFleet struct {
	t       testing.TB
	ids     []string
	ft      *fleetTransport
	client  *http.Client
	clk     *faultinject.Clock
	servers map[string]*Server
	fss     map[string]*faultinject.MemFS
	mutate  func(id string, c *Config)
}

// newTestFleet builds (and starts) a fleet over ids. clientRT is the
// peer-client transport — pass ft itself for a clean network or a
// FaultTransport wrapping it for chaos. mutate tweaks each replica's
// config before start.
func newTestFleet(t testing.TB, ids []string, ft *fleetTransport, clientRT http.RoundTripper, mutate func(string, *Config)) *testFleet {
	t.Helper()
	f := &testFleet{
		t:       t,
		ids:     ids,
		ft:      ft,
		client:  &http.Client{Transport: clientRT},
		clk:     faultinject.NewClock(time.Time{}),
		servers: map[string]*Server{},
		fss:     map[string]*faultinject.MemFS{},
		mutate:  mutate,
	}
	for _, id := range ids {
		f.fss[id] = faultinject.NewMemFS()
	}
	for _, id := range ids {
		f.start(id)
	}
	return f
}

// start boots (or reboots) one replica: fresh Server over the replica's
// persistent MemFS, snapshot restore via Bootstrap, handler registered
// on the fleet. Peer warm-seeding is the caller's move (restart does it;
// initial boot has nothing to seed from).
func (f *testFleet) start(id string) *Server {
	f.t.Helper()
	var peers []Peer
	for _, other := range f.ids {
		if other != id {
			peers = append(peers, Peer{ID: other, URL: replURL(other)})
		}
	}
	cfg := Config{
		FitSamples:   300,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		FS:           f.fss[id],
		SnapshotPath: "state/" + id + ".lvf2snap",
		now:          f.clk.Now,
		Replication: ReplicationOptions{
			SelfID:          id,
			Peers:           peers,
			ForwardTimeout:  2 * time.Second,
			ForwardAttempts: 2,
			RetryBase:       time.Millisecond,
			ProbeInterval:   time.Hour, // probes are driven explicitly
			Breaker:         BreakerOptions{FailureThreshold: 3, OpenBase: time.Second, JitterSeed: 1},
			Client:          f.client,
		},
	}
	if f.mutate != nil {
		f.mutate(id, &cfg)
	}
	s := New(cfg)
	if _, err := s.AddLibrary("testlib", testLibText(f.t, "testlib")); err != nil {
		f.t.Fatal(err)
	}
	s.Bootstrap()
	f.servers[id] = s
	f.ft.set(replHost(id), s.Handler())
	return s
}

// kill models kill -9: the replica vanishes from the network without
// saving anything. Its MemFS (and whatever snapshot it last saved)
// survives for the next start.
func (f *testFleet) kill(id string) {
	f.ft.set(replHost(id), nil)
	delete(f.servers, id)
}

// restart boots a killed replica and runs the recovery protocol:
// snapshot restore (Bootstrap, inside start), peer warm-seed of owned
// keys, and a probe round so the replica sees its live peers.
func (f *testFleet) restart(id string) *Server {
	f.t.Helper()
	s := f.start(id)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.WarmSeedFromPeers(ctx)
	s.ProbePeersOnce(ctx)
	return s
}

func (f *testFleet) server(id string) *Server {
	s, ok := f.servers[id]
	if !ok {
		f.t.Fatalf("fleet: replica %s is dead", id)
	}
	return s
}

// handler returns the live handler for direct (client-side) traffic.
func (f *testFleet) handler(id string) http.Handler {
	f.ft.mu.Lock()
	defer f.ft.mu.Unlock()
	h := f.handlers()[replHost(id)]
	if h == nil {
		f.t.Fatalf("fleet: replica %s is dead", id)
	}
	return h
}

func (f *testFleet) handlers() map[string]http.Handler { return f.ft.handlers }

// ownerOf resolves the ring owner of one arc-query URL as seen by s.
func ownerOf(t testing.TB, s *Server, rawURL string) string {
	t.Helper()
	aq, err := parseArcQuery(httptest.NewRequest(http.MethodGet, rawURL, nil))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := s.resolveArc(aq)
	if err != nil {
		t.Fatal(err)
	}
	return s.repl.view().ring.Owner(cacheKeyFor(ra, aq).RingKey())
}

// urlOwnedBy finds a grid URL owned by want, as computed on s.
func urlOwnedBy(t testing.TB, s *Server, want string) string {
	t.Helper()
	for _, u := range replGridURLs() {
		if ownerOf(t, s, u) == want {
			return u
		}
	}
	t.Fatalf("no grid URL owned by %s", want)
	return ""
}

// replGridURLs is the deterministic query grid of the replication tests:
// every combination is a distinct model-cache key, spread across the
// ring by the key hash.
func replGridURLs() []string {
	var urls []string
	for _, cell := range []string{"INV", "NAND2"} {
		for _, kind := range []string{"lvf2", "norm2", "gaussian", "ln"} {
			for _, slew := range []float64{0.01, 0.02, 0.05} {
				for _, ep := range []string{"/v1/arc/cdf", "/v1/arc/binning"} {
					urls = append(urls, fmt.Sprintf("%s?lib=testlib&cell=%s&kind=%s&slew=%g&load=0.004", ep, cell, kind, slew))
				}
			}
		}
	}
	return urls
}

// ------------------------------------------------------------- forwarding

// TestForwardToOwner pins the happy path: a query landing on a
// non-owner relays the owner's verified answer byte for byte, warms the
// owner's cache (not the forwarder's), and tags the response.
func TestForwardToOwner(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a, b := f.server("a"), f.server("b")
	url := urlOwnedBy(t, a, "b")

	rec, body := get(t, a.Handler(), url)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded query = %d: %s", rec.Code, body)
	}
	if got := rec.Header().Get(forwardHeader); got != forwardOutcomeForwarded {
		t.Fatalf("%s = %q, want %q", forwardHeader, got, forwardOutcomeForwarded)
	}
	if got := rec.Header().Get(forwardPeerHeader); got != "b" {
		t.Fatalf("%s = %q, want b", forwardPeerHeader, got)
	}
	// Bit-identical to asking the owner directly (its cache is now warm).
	recB, bodyB := get(t, b.Handler(), url)
	if recB.Code != http.StatusOK || string(bodyB) != string(body) {
		t.Fatalf("relayed body differs from the owner's direct answer")
	}
	// The fit landed in the owner's cache; the forwarder stayed cold.
	if hits := b.cache.ModelStats().Hits; hits == 0 {
		t.Fatal("owner cache did not serve the repeat query warm")
	}
	if st := a.cache.ModelStats(); st.Entries != 0 {
		t.Fatalf("forwarder cached %d models for a key it does not own", st.Entries)
	}
	if n := a.repl.reqs.Value("b", "ok"); n != 1 {
		t.Fatalf("lvf2d_peer_requests_total{peer=b,outcome=ok} = %d, want 1", n)
	}
	if a.repl.forwardSeconds.Count() != 1 {
		t.Fatalf("forward histogram count = %d, want 1", a.repl.forwardSeconds.Count())
	}
}

// TestForwardSingleHop proves a forwarded request is never re-forwarded:
// the owner marker makes the receiver compute locally even for keys it
// does not own, and its response carries the integrity checksum.
func TestForwardSingleHop(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b", "c"}, ft, ft, nil)
	a := f.server("a")
	url := urlOwnedBy(t, a, "b")

	// Simulate a stale-ring peer forwarding a b-owned key to a.
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(forwardedFromHeader, "c")
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("marked request = %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := rec.Header().Get(forwardHeader); got != "" {
		t.Fatalf("marked request was forwarded again (%s=%q)", forwardHeader, got)
	}
	if rec.Header().Get(bodySumHeader) == "" {
		t.Fatal("response to a forwarded request is missing the body checksum")
	}
	// a computed (and cached) the answer itself.
	if st := a.cache.ModelStats(); st.Entries == 0 {
		t.Fatal("receiver did not compute the marked request locally")
	}
}

// TestForwardLocalFallbackWhenOwnerDead is the availability core of the
// design: with the owner gone, a non-owner answers 200 from its own
// compute — never a 5xx, never an error body.
func TestForwardLocalFallbackWhenOwnerDead(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a := f.server("a")
	url := urlOwnedBy(t, a, "b")
	f.kill("b")

	rec, body := get(t, a.Handler(), url)
	if rec.Code != http.StatusOK {
		t.Fatalf("query with dead owner = %d, want 200: %s", rec.Code, body)
	}
	if got := rec.Header().Get(forwardHeader); got != forwardOutcomeFallback {
		t.Fatalf("%s = %q, want %q", forwardHeader, got, forwardOutcomeFallback)
	}
	if n := a.repl.reqs.Value("b", "local_fallback"); n != 1 {
		t.Fatalf("local_fallback counter = %d, want 1", n)
	}
	if n := a.repl.reqs.Value("b", "retry"); n == 0 {
		t.Fatal("expected at least one counted retry before falling back")
	}
	// The fallback warmed the local cache: the repeat answers without
	// another forward attempt (Peek short-circuits maybeForward).
	before := a.repl.reqs.Value("b", "local_fallback")
	rec2, body2 := get(t, a.Handler(), url)
	if rec2.Code != http.StatusOK || string(body2) != string(body) {
		t.Fatalf("repeat fallback query changed: %d %s", rec2.Code, body2)
	}
	if rec2.Header().Get(forwardHeader) != "" {
		t.Fatal("warm local key still tried to forward")
	}
	if after := a.repl.reqs.Value("b", "local_fallback"); after != before {
		t.Fatal("warm repeat counted another fallback")
	}
}

// TestForwardBreakerOpensAndProbeHeals drives the peer breaker through
// its failure → open → probe-heal cycle.
func TestForwardBreakerOpensAndProbeHeals(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a := f.server("a")
	f.kill("b")

	// Distinct-key b-owned URLs (cdf only — cdf and binning URLs with
	// the same params share a ModelKey) so the local fallback cache
	// never short-circuits the forward attempt.
	var urls []string
	for _, u := range replGridURLs() {
		if strings.HasPrefix(u, "/v1/arc/cdf") && ownerOf(t, a, u) == "b" {
			urls = append(urls, u)
		}
	}
	if len(urls) < 5 {
		t.Fatalf("grid only has %d b-owned URLs", len(urls))
	}
	// FailureThreshold 3: the first three forwards fail and open the
	// breaker; later queries skip forwarding without touching the wire.
	for i := 0; i < 3; i++ {
		rec, _ := get(t, a.Handler(), urls[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d during outage = %d, want 200", i, rec.Code)
		}
	}
	if st := a.repl.breakers.stateOf("b"); st != breakerOpen {
		t.Fatalf("peer breaker after %d failed forwards = %v, want open", 3, st)
	}
	rec, _ := get(t, a.Handler(), urls[3])
	if rec.Code != http.StatusOK || rec.Header().Get(forwardHeader) != forwardOutcomeFallback {
		t.Fatal("open-breaker query did not fall back locally")
	}
	if n := a.repl.reqs.Value("b", "breaker_open"); n == 0 {
		t.Fatal("breaker_open outcome was never counted")
	}

	// Restart b; one probe round heals the breaker and the health map,
	// and the next b-owned query forwards again.
	f.restart("b")
	a.ProbePeersOnce(context.Background())
	if st := a.repl.breakers.stateOf("b"); st != breakerClosed {
		t.Fatalf("peer breaker after probe heal = %v, want closed", st)
	}
	rec, _ = get(t, a.Handler(), urls[4])
	if rec.Code != http.StatusOK || rec.Header().Get(forwardHeader) != forwardOutcomeForwarded {
		t.Fatalf("post-heal query: code %d %s=%q, want forwarded 200",
			rec.Code, forwardHeader, rec.Header().Get(forwardHeader))
	}
}

// TestForwardChecksumGuard proves a corrupted peer link degrades to
// local compute instead of relaying damaged bytes: with every peer
// response body corrupted, answers still come back 200 and correct.
func TestForwardChecksumGuard(t *testing.T) {
	ft := newFleetTransport()
	corrupting := faultinject.NewFaultTransport(ft, faultinject.NetFaults{PCorruptBody: 1}, 11)
	f := newTestFleet(t, []string{"a", "b"}, ft, corrupting, nil)
	a := f.server("a")
	url := urlOwnedBy(t, a, "b")

	rec, body := get(t, a.Handler(), url)
	if rec.Code != http.StatusOK {
		t.Fatalf("query over corrupt link = %d: %s", rec.Code, body)
	}
	if got := rec.Header().Get(forwardHeader); got != forwardOutcomeFallback {
		t.Fatalf("%s = %q, want %q (corrupt bodies must never relay)", forwardHeader, got, forwardOutcomeFallback)
	}
	// The answer is the honest local compute, identical to a standalone
	// server's.
	solo := newTestServer(t, func(c *Config) { c.FitSamples = 300 })
	solo.Bootstrap()
	_, soloBody := get(t, solo.Handler(), url)
	if string(body) != string(soloBody) {
		t.Fatal("fallback body differs from standalone compute")
	}
}

// TestForwardPartitionAsymmetric exercises the split-brain shape: a can
// no longer reach b, but b still reaches a. Both keep answering 200 —
// a by local fallback, b by forwarding.
func TestForwardPartitionAsymmetric(t *testing.T) {
	ft := newFleetTransport()
	faults := faultinject.NewFaultTransport(ft, faultinject.NetFaults{}, 13)
	f := newTestFleet(t, []string{"a", "b"}, ft, faults, nil)
	a, b := f.server("a"), f.server("b")
	bOwned := urlOwnedBy(t, a, "b")
	aOwned := urlOwnedBy(t, a, "a")

	faults.SetPartition(replHost("b"))
	rec, _ := get(t, a.Handler(), bOwned)
	if rec.Code != http.StatusOK || rec.Header().Get(forwardHeader) != forwardOutcomeFallback {
		t.Fatalf("a→b during partition: code %d %s=%q, want fallback 200",
			rec.Code, forwardHeader, rec.Header().Get(forwardHeader))
	}
	// The partition is asymmetric: b's forwards to a share the same
	// transport, and the transport only blocks traffic TO replica-b.
	rec, _ = get(t, b.Handler(), aOwned)
	if rec.Code != http.StatusOK || rec.Header().Get(forwardHeader) != forwardOutcomeForwarded {
		t.Fatalf("b→a during partition: code %d %s=%q, want forwarded 200",
			rec.Code, forwardHeader, rec.Header().Get(forwardHeader))
	}
	faults.SetPartition()
}

// --------------------------------------------------- snapshot + warm-seed

// TestPeerSnapshotEndpoint pins the owned-slice export: only keys the
// requested owner owns, decodable, and guarded against non-members.
func TestPeerSnapshotEndpoint(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b", "c"}, ft, ft, nil)
	a := f.server("a")

	// Warm a's cache with everything it can hold, bypassing forwarding
	// (marked requests compute locally).
	for _, u := range replGridURLs() {
		req := httptest.NewRequest(http.MethodGet, u, nil)
		req.Header.Set(forwardedFromHeader, "test")
		rec := httptest.NewRecorder()
		a.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("warm query %s = %d", u, rec.Code)
		}
	}

	rec, body := get(t, a.Handler(), "/v1/peer/snapshot?owner=b")
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot export = %d: %s", rec.Code, body)
	}
	entries, err := modelcache.DecodeSnapshot(body)
	if err != nil {
		t.Fatalf("export does not decode: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("export is empty; expected b-owned keys from the warmed grid")
	}
	for _, e := range entries {
		if owner := a.repl.view().ring.Owner(e.Key.RingKey()); owner != "b" {
			t.Fatalf("export leaked a key owned by %s", owner)
		}
	}
	total := a.cache.ModelStats().Entries
	if len(entries) >= total {
		t.Fatalf("filter kept %d of %d entries; expected a strict slice", len(entries), total)
	}

	for _, bad := range []string{"", "nobody"} {
		rec, _ := get(t, a.Handler(), "/v1/peer/snapshot?owner="+bad)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("owner=%q = %d, want 400", bad, rec.Code)
		}
	}
}

// TestWarmSeedFromPeers proves the restart protocol end to end: while a
// replica is down its peers absorb its keys via local fallback, and on
// restart the replica pulls that owned slice back before taking traffic.
func TestWarmSeedFromPeers(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b"}, ft, ft, nil)
	a, b := f.server("a"), f.server("b")
	var aOwned []string
	for _, u := range replGridURLs() {
		if ownerOf(t, a, u) == "a" {
			aOwned = append(aOwned, u)
		}
	}

	// Kill a, then drive the full grid through b. The a-owned keys fail
	// to forward and land in b's cache as local fallbacks — exactly the
	// state a peer is in after surviving an outage.
	f.kill("a")
	for _, u := range replGridURLs() {
		rec, _ := get(t, b.Handler(), u)
		if rec.Code != http.StatusOK {
			t.Fatalf("grid query %s during outage = %d", u, rec.Code)
		}
	}

	// Restart a; its snapshot was never saved, so it boots cold and
	// recovery rides entirely on the peer warm-seed.
	a2 := f.restart("a")
	if n := a2.cache.ModelStats().Entries; n == 0 {
		t.Fatal("warm-seed restored nothing")
	}
	if v := a2.repl.warmSeeded.Value(); v == 0 {
		t.Fatal("warm-seed counter did not move")
	}
	// Every a-owned key answered from b's copy must now be warm: replay
	// the a-owned URLs and demand hits, not fits.
	st := a2.cache.ModelStats()
	for _, u := range aOwned {
		rec, _ := get(t, a2.Handler(), u)
		if rec.Code != http.StatusOK {
			t.Fatalf("replay %s = %d", u, rec.Code)
		}
	}
	after := a2.cache.ModelStats()
	hits, misses := after.Hits-st.Hits, after.Misses-st.Misses
	if misses != 0 {
		t.Fatalf("replay of %d owned URLs: %d hits, %d misses; want all warm", len(aOwned), hits, misses)
	}
}

// ----------------------------------------------------------------- readyz

func TestReadyzReplicationBody(t *testing.T) {
	ft := newFleetTransport()
	f := newTestFleet(t, []string{"a", "b", "c"}, ft, ft, nil)
	a := f.server("a")

	rec, body := get(t, a.Handler(), "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d: %s", rec.Code, body)
	}
	resp := decode[readyzResponse](t, body)
	if resp.Status != "ready" {
		t.Fatalf("status = %q", resp.Status)
	}
	if resp.Ring == nil || resp.Ring.Self != "a" {
		t.Fatalf("ring block = %+v", resp.Ring)
	}
	if got := strings.Join(resp.Ring.Members, ","); got != "a,b,c" {
		t.Fatalf("members = %q, want a,b,c", got)
	}
	if len(resp.Peers) != 2 {
		t.Fatalf("peers = %+v, want entries for b and c", resp.Peers)
	}
	for _, p := range resp.Peers {
		if p.Breaker != "closed" || !p.Healthy {
			t.Fatalf("peer %s: breaker=%s healthy=%v, want closed/healthy", p.ID, p.Breaker, p.Healthy)
		}
	}

	// Kill b, fail forwards until its breaker opens, and watch the body.
	f.kill("b")
	for _, u := range replGridURLs() {
		if ownerOf(t, a, u) == "b" {
			get(t, a.Handler(), u)
		}
	}
	_, body = get(t, a.Handler(), "/readyz")
	resp = decode[readyzResponse](t, body)
	for _, p := range resp.Peers {
		if p.ID == "b" && p.Breaker == "closed" {
			t.Fatalf("peer b breaker still closed after outage: %+v", resp.Peers)
		}
	}
}

// A standalone server keeps the plain JSON body with no ring block (and
// the legacy starting/ready substrings the probes grep for).
func TestReadyzStandaloneBody(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := get(t, s.Handler(), "/readyz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(string(body), "starting") {
		t.Fatalf("pre-bootstrap readyz = %d %s", rec.Code, body)
	}
	s.Bootstrap()
	rec, body = get(t, s.Handler(), "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("post-bootstrap readyz = %d %s", rec.Code, body)
	}
	resp := decode[readyzResponse](t, body)
	if resp.Ring != nil || len(resp.Peers) != 0 {
		t.Fatalf("standalone readyz carries replication state: %s", body)
	}
}

// ------------------------------------------------------ malformed queries

// malformedArcParams lists (endpoint, parameter) pairs that make any arc
// query malformed: every numeric parameter × NaN/±Inf, an out-of-range
// n, a bad points value and a short prices list. Put first in the query
// string, the parameter wins over a later one of the same name.
func malformedArcParams() [][2]string {
	var ps [][2]string
	for _, bad := range []string{"NaN", "Inf", "-Inf"} {
		for _, ep := range []string{"/v1/arc/cdf", "/v1/arc/binning", "/v1/yield"} {
			ps = append(ps, [2]string{ep, "slew=" + bad}, [2]string{ep, "load=" + bad})
		}
		ps = append(ps,
			[2]string{"/v1/arc/cdf", "points=0.1," + bad},
			[2]string{"/v1/arc/binning", "prices=0,1,2,3,4,5,6," + bad},
			[2]string{"/v1/yield", "sigma=" + bad},
			[2]string{"/v1/yield", "clock=" + bad},
			[2]string{"/v1/yield", "estimator=mc&ci=" + bad},
		)
	}
	return append(ps,
		[2]string{"/v1/arc/cdf", "n=1"},
		[2]string{"/v1/arc/cdf", "points=0.1,x"},
		[2]string{"/v1/arc/binning", "prices=1,2"},
	)
}

// roundTripCounter counts the requests a replica sends to its peers.
type roundTripCounter struct {
	next  http.RoundTripper
	trips atomic.Int64
}

func (c *roundTripCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	c.trips.Add(1)
	return c.next.RoundTrip(req)
}

// TestMalformedQueryNeverForwarded: a query the owner would refuse is
// refused by the replica it lands on, before it resolves or forwards. It
// costs no peer round trip and no strike against the owner's breaker, so
// the next valid query still forwards.
func TestMalformedQueryNeverForwarded(t *testing.T) {
	ft := newFleetTransport()
	counter := &roundTripCounter{next: ft}
	f := newTestFleet(t, []string{"a", "b"}, ft, counter, nil)
	a := f.server("a")
	// Distinct cold b-owned keys (cdf URLs only: a cdf and a binning URL
	// with the same parameters share a key).
	var bases []string
	for _, u := range replGridURLs() {
		if strings.HasPrefix(u, "/v1/arc/cdf") && ownerOf(t, a, u) == "b" {
			_, q, _ := strings.Cut(u, "?")
			bases = append(bases, q)
		}
	}
	if len(bases) < 4 {
		t.Fatalf("grid only has %d b-owned keys", len(bases))
	}
	for i, p := range malformedArcParams() {
		u := p[0] + "?" + p[1] + "&" + bases[i%(len(bases)-1)]
		rec, body := get(t, a.Handler(), u)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400: %s", u, rec.Code, body)
		}
		if got := rec.Header().Get(forwardHeader); got != "" {
			t.Errorf("%s: %s = %q, want none", u, forwardHeader, got)
		}
	}
	if n := counter.trips.Load(); n != 0 {
		t.Errorf("malformed queries cost %d peer round trips, want 0", n)
	}
	if st := a.repl.breakers.stateOf("b"); st != breakerClosed {
		t.Errorf("peer breaker after malformed queries = %v, want closed", st)
	}
	u := "/v1/arc/cdf?" + bases[len(bases)-1]
	rec, body := get(t, a.Handler(), u)
	if rec.Code != http.StatusOK || rec.Header().Get(forwardHeader) != forwardOutcomeForwarded {
		t.Fatalf("next valid b-owned query: code %d %s=%q, want forwarded 200: %s",
			rec.Code, forwardHeader, rec.Header().Get(forwardHeader), body)
	}
}
