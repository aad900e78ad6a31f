package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lvf2/internal/mc"
	"lvf2/internal/modelcache"
	"lvf2/internal/obs"
	"lvf2/internal/ring"
)

// Replicated serving (DESIGN.md §16). A fleet of lvf2d replicas shards
// the fitted-model cache with a consistent-hash ring over the full arc
// coordinate: every replica builds the same ring from the same
// membership document, so all of them agree on which replica owns which
// key without coordination traffic. A request landing on a non-owner
// forwards to the owner (per-peer deadline, capped jittered retry,
// per-peer circuit breaker); when the owner is unreachable the replica
// computes the answer locally instead. The fitters are deterministic,
// so a local fallback is bit-identical to the owner's answer — just
// cold. A replica death therefore costs latency, never correctness.
//
// Forwarding headers:
//
//	X-LVF2-Forwarded-From  request: sender's peer ID; owners never
//	                       re-forward a marked request (single hop)
//	X-LVF2-Forward         response: "forwarded" | "local-fallback"
//	X-LVF2-Forward-Peer    response: the owner the request mapped to
//	X-LVF2-Body-SHA256     response: owner-computed body checksum; the
//	                       forwarding side re-verifies it so a corrupted
//	                       peer link degrades to local compute instead
//	                       of relaying garbage
//	X-LVF2-Ring-Epoch      request and response: the sender's membership
//	                       epoch; a mismatch makes the lagging side pull
//	                       the newer membership from the other (epoch
//	                       propagation piggybacked on forwarding, no new
//	                       protocol)
const (
	forwardedFromHeader = "X-LVF2-Forwarded-From"
	forwardHeader       = "X-LVF2-Forward"
	forwardPeerHeader   = "X-LVF2-Forward-Peer"
	bodySumHeader       = "X-LVF2-Body-SHA256"
	ringEpochHeader     = "X-LVF2-Ring-Epoch"

	forwardOutcomeForwarded = "forwarded"
	forwardOutcomeFallback  = "local-fallback"
)

// peerJSONCap is the read cap of a peer's small JSON answers: probe
// bodies, membership documents, digests and ingest replies.
const peerJSONCap = 1 << 20

// Peer identifies one remote replica. The JSON tags are the membership
// document's wire format.
type Peer struct {
	ID  string `json:"id"`
	URL string `json:"url"` // base URL, e.g. http://replica-b:8080
}

// ReplicationOptions configures the sharded-serving layer. The zero
// value (no peers) disables it: the server behaves exactly like a
// standalone lvf2d.
type ReplicationOptions struct {
	// SelfID is this replica's identity on the ring. Required in a
	// fleet.
	SelfID string
	// SelfURL is this replica's own base URL as peers reach it. It is
	// embedded in membership documents so joins and drains can be
	// announced; optional for a static fleet that never reconfigures.
	SelfURL string
	// Peers is shorthand for the epoch-0 membership document of
	// {SelfID, SelfURL} plus these peers; membership may change
	// afterwards (see Membership and /v1/fleet/membership).
	Peers []Peer
	// Membership, when non-nil, is the boot-time membership document
	// and overrides Peers: the ring members are the document's members
	// at its epoch. cmd/lvf2d builds it from -peers or loads it from
	// -membership.
	Membership *Membership
	// MembershipPath, when non-empty, enables the config-watch seam:
	// the file is polled (mtime, then SHA-256) and a strictly newer
	// membership document found there is adopted and announced to the
	// fleet; adopted memberships are persisted back to it.
	MembershipPath string
	// MembershipPollInterval is the file-watch cadence (default 2s).
	MembershipPollInterval time.Duration
	// VirtualNodes and RingSeed tune ring placement (defaults
	// ring.DefaultVirtualNodes, 0). All replicas must agree.
	VirtualNodes int
	RingSeed     uint64
	// ForwardTimeout is the per-attempt deadline of one forwarded
	// request or probe (default 2s).
	ForwardTimeout time.Duration
	// ForwardAttempts bounds forward tries per request (default 3).
	ForwardAttempts int
	// RetryBase is the first retry backoff; each retry doubles it and
	// jitters over [d, 1.5d) (default 20ms).
	RetryBase time.Duration
	// ProbeInterval is the background /readyz probe cadence
	// (default 2s).
	ProbeInterval time.Duration
	// AntiEntropyInterval is the background digest-exchange cadence
	// (default 30s).
	AntiEntropyInterval time.Duration
	// SnapshotMaxBytes caps one /v1/peer/snapshot transfer in both
	// directions: the server truncates its export (newest entries
	// kept) and the client refuses to read past it (default 64 MiB).
	SnapshotMaxBytes int64
	// Breaker tunes the per-peer circuit breaker (defaults as
	// BreakerOptions; JitterSeed also seeds the retry jitter).
	Breaker BreakerOptions
	// Client issues forwarded requests and probes (default a dedicated
	// http.Client; the chaos suite injects a FaultTransport here).
	Client *http.Client
}

func (o ReplicationOptions) withDefaults() ReplicationOptions {
	if o.MembershipPollInterval <= 0 {
		o.MembershipPollInterval = 2 * time.Second
	}
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 2 * time.Second
	}
	if o.ForwardAttempts <= 0 {
		o.ForwardAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 20 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.AntiEntropyInterval <= 0 {
		o.AntiEntropyInterval = 30 * time.Second
	}
	if o.SnapshotMaxBytes <= 0 {
		o.SnapshotMaxBytes = 64 << 20
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// fleetView is one consistent read of the mutable membership state: the
// current ring, the previous-epoch ring while a transition window is
// open, and the remote members of the current epoch. The maps and
// slices it carries are copy-on-write — adoption installs fresh ones —
// so a view taken under the lock stays coherent without holding it.
type fleetView struct {
	epoch      uint64
	ring       *ring.Ring
	prev       *ring.Ring      // nil outside a transition window
	prevPeers  map[string]Peer // remote members of the previous epoch
	peers      map[string]Peer // remote members of the current epoch
	order      []string        // sorted remote member IDs
	membership Membership      // the installed document
	drained    bool            // self is not a member of the current epoch
}

// replication is the per-server sharding state.
type replication struct {
	self    string
	opts    ReplicationOptions
	logger  *slog.Logger
	warming atomic.Bool // joining replica: alive but not yet taking traffic

	breakers *breakerSet[string]

	mu         sync.Mutex
	rng        *mc.RNG         // retry-backoff jitter
	healthy    map[string]bool // probe-driven liveness; true until proven dead
	fleet      fleetView
	lastMerged map[string]uint64 // anti-entropy: last peer digest merged
	watchMod   time.Time         // config watcher: last seen mtime
	watchSum   [sha256.Size]byte // config watcher: last seen content hash

	reqs           *obs.CounterVec // by peer, outcome
	forwardSeconds *obs.Histogram
	warmSeeded     *obs.Counter
	transitions    *obs.Counter
	snapTruncated  *obs.Counter
	aeRounds       *obs.Counter
	aeRepaired     *obs.Counter
	handoffModels  *obs.Counter
}

// view returns a consistent snapshot of the fleet state.
func (p *replication) view() fleetView {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fleet
}

// epoch returns the current membership epoch.
func (p *replication) epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fleet.epoch
}

// newReplication builds the sharding state, or nil when cfg carries no
// fleet. Peers is shorthand for the epoch-0 document of self plus the
// peers. An invalid document disables replication and logs the reason
// rather than failing New — cmd/lvf2d validates the same document up
// front and exits 2, so this path only triggers for programmatic
// misconfiguration.
func newReplication(cfg Config) *replication {
	o := cfg.Replication
	if len(o.Peers) == 0 && o.Membership == nil {
		return nil
	}
	boot := Membership{Members: append([]Peer{{ID: o.SelfID, URL: o.SelfURL}}, o.Peers...)}
	if o.Membership != nil {
		boot = *o.Membership
	}
	err := boot.Validate()
	if err == nil && o.SelfID == "" {
		err = fmt.Errorf("SelfID is required")
	}
	if err != nil {
		cfg.Logger.Error("lvf2d: replication disabled", "reason", err.Error())
		return nil
	}
	o = o.withDefaults()
	r := cfg.Registry
	opts := o.Breaker
	if opts.JitterSeed == 0 {
		opts.JitterSeed = 1
	}
	p := &replication{
		self:       o.SelfID,
		opts:       o,
		logger:     cfg.Logger,
		breakers:   newBreakerSet[string](opts, cfg.now, r, "lvf2d_peer_breaker", "peer"),
		rng:        mc.NewRNG(opts.JitterSeed | 1),
		healthy:    map[string]bool{},
		lastMerged: map[string]uint64{},
		reqs: obs.NewCounterVec(r, "lvf2d_peer_requests_total",
			"peer forwarding attempts by peer and outcome", "peer", "outcome"),
		forwardSeconds: obs.NewHistogram(r, "lvf2d_peer_forward_seconds",
			"latency of successful forwarded requests", nil),
		warmSeeded: obs.NewCounter(r, "lvf2d_peer_warm_seeded_models_total",
			"owned models warm-seeded from peer snapshot slices on boot"),
		transitions: obs.NewCounter(r, "lvf2d_membership_transitions_total",
			"membership epochs adopted after boot"),
		snapTruncated: obs.NewCounter(r, "lvf2d_peer_snapshot_truncated_total",
			"peer snapshot exports truncated by the max_bytes cap (newest entries kept)"),
		aeRounds: obs.NewCounter(r, "lvf2d_antientropy_rounds_total",
			"anti-entropy digest-exchange rounds completed"),
		aeRepaired: obs.NewCounter(r, "lvf2d_antientropy_models_repaired_total",
			"models re-seeded from peers by anti-entropy repair"),
		handoffModels: obs.NewCounter(r, "lvf2d_handoff_models_total",
			"models pushed to next-epoch owners during a graceful drain"),
	}
	if err := p.install(boot, false); err != nil {
		cfg.Logger.Error("lvf2d: replication disabled", "reason", err.Error())
		return nil
	}
	obs.NewGaugeFunc(r, "lvf2d_ring_epoch", "current membership epoch",
		func() float64 { return float64(p.epoch()) })
	return p
}

// install builds and swaps in the fleet state for membership m. With
// transition set, the outgoing ring is retained as the previous-epoch
// ring (opening the dual-read window) and the transition counter moves;
// boot installs pass false. Callers must not hold p.mu.
func (p *replication) install(m Membership, transition bool) error {
	ids := make([]string, 0, len(m.Members))
	peers := make(map[string]Peer, len(m.Members))
	order := make([]string, 0, len(m.Members))
	selfIn := false
	for _, mem := range m.Members {
		ids = append(ids, mem.ID)
		if mem.ID == p.self {
			selfIn = true
			continue
		}
		peers[mem.ID] = mem
		order = append(order, mem.ID)
	}
	sort.Strings(order)
	rg, err := ring.New(ids, ring.Options{
		VirtualNodes: p.opts.VirtualNodes,
		Seed:         p.opts.RingSeed,
		Epoch:        m.Epoch,
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Epoch-guarded swap: two concurrent adoptions (CAS post racing a
	// probe sync, say) serialise here, and the loser can never regress
	// the fleet to an older epoch.
	if transition && m.Epoch <= p.fleet.epoch {
		return fmt.Errorf("membership epoch %d is not newer than installed epoch %d", m.Epoch, p.fleet.epoch)
	}
	next := fleetView{
		epoch:      m.Epoch,
		ring:       rg,
		peers:      peers,
		order:      order,
		membership: m.clone(),
		drained:    !selfIn,
	}
	if transition {
		next.prev = p.fleet.ring
		next.prevPeers = p.fleet.peers
	}
	for id := range peers {
		if _, known := p.healthy[id]; !known {
			p.healthy[id] = true // new peers start presumed alive
		}
	}
	p.fleet = next
	if transition {
		p.transitions.Inc()
	}
	return nil
}

// clearTransition closes the dual-read window: after one anti-entropy
// round the current owners hold their ranges warm, so the
// previous-epoch ring is no longer worth consulting.
func (p *replication) clearTransition() {
	p.mu.Lock()
	p.fleet.prev = nil
	p.fleet.prevPeers = nil
	p.mu.Unlock()
}

func (p *replication) isHealthy(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy[id]
}

func (p *replication) setHealthy(id string, alive bool) {
	p.mu.Lock()
	p.healthy[id] = alive
	p.mu.Unlock()
}

// retryDelay is the capped jittered backoff before retry attempt n≥1:
// RetryBase·2^(n-1) spread over [d, 1.5d), capped at 16×RetryBase.
func (p *replication) retryDelay(attempt int) time.Duration {
	d := p.opts.RetryBase << (attempt - 1)
	if max := 16 * p.opts.RetryBase; d > max {
		d = max
	}
	p.mu.Lock()
	j := p.rng.Float64()
	p.mu.Unlock()
	return d + time.Duration(j*0.5*float64(d))
}

// retry runs try up to ForwardAttempts times, sleeping the jittered
// backoff between tries, until one succeeds or ctx ends. It returns nil,
// the last try's error, or ctx's error when ctx ends during a backoff —
// so a client that went away reaches the peer breaker as cancellation.
func (p *replication) retry(ctx context.Context, try func(attempt int) error) error {
	var err error
	for attempt := 0; attempt < p.opts.ForwardAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(p.retryDelay(attempt)):
			}
		}
		if err = try(attempt); err == nil || ctx.Err() != nil {
			return err
		}
	}
	return err
}

// call is the one request a replica makes to a peer: it runs under the
// per-attempt ForwardTimeout, sets the header name/value pairs, and
// reads at most limit bytes of the answer (its caller's cap). An answer
// that declares more than limit bytes is refused unread. The returned
// response's body is closed.
func (p *replication) call(ctx context.Context, method, url string, body []byte, limit int64, header ...string) (*http.Response, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.opts.ForwardTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.ContentLength > limit {
		return nil, nil, fmt.Errorf("peer answer declares %d bytes, cap is %d", resp.ContentLength, limit)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, nil, err
	}
	return resp, b, nil
}

// maybeForward routes a resolved arc query to its ring owner. It
// returns true when the response has been fully written (a successful
// forward). Returning false means the caller must answer locally —
// either because this replica owns the key (or already has it warm),
// or because no owner is reachable and the request degrades to a
// local-fallback compute (tagged via X-LVF2-Forward).
//
// During a membership transition window the miss dual-reads: the
// current-epoch owner first, then the previous-epoch owner (which still
// holds the range warm until anti-entropy re-seeds the new owner), then
// the deterministic local compute — every failure mode degrades to a
// bit-identical answer, at worst a cold one.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, ra *resolvedArc, aq arcQuery) bool {
	p := s.repl
	if p == nil || r.Header.Get(forwardedFromHeader) != "" {
		return false
	}
	v := p.view()
	key := cacheKeyFor(ra, aq)
	rk := key.RingKey()
	owner := v.ring.Owner(rk)
	if owner == p.self {
		return false
	}
	// A locally warm key answers in a map lookup; a forward hop could
	// only be slower. Determinism makes the local copy just as correct.
	if _, ok := s.cache.Peek(key); ok {
		return false
	}
	if peer, ok := v.peers[owner]; ok && p.forward(w, r, peer) {
		return true
	}
	if v.prev != nil {
		if prevOwner := v.prev.Owner(rk); prevOwner != owner && prevOwner != p.self {
			// The previous owner may already have left the current
			// membership (a drain), so resolve its URL against the
			// previous epoch's peer set as well.
			peer, ok := v.peers[prevOwner]
			if !ok {
				peer, ok = v.prevPeers[prevOwner]
			}
			if ok && p.forward(w, r, peer) {
				return true
			}
		}
	}
	p.reqs.Inc(owner, "local_fallback")
	w.Header().Set(forwardHeader, forwardOutcomeFallback)
	w.Header().Set(forwardPeerHeader, owner)
	return false
}

// forward relays r to the owner peer, returning true once the owner's
// verified response has been written to w. Any failure mode —
// probe-dead peer, open breaker, exhausted retries, checksum mismatch,
// request deadline — returns false and leaves w untouched.
func (p *replication) forward(w http.ResponseWriter, r *http.Request, peer Peer) bool {
	owner := peer.ID
	if !p.isHealthy(owner) {
		return false
	}
	ok, probe := p.breakers.allow(owner)
	if !ok {
		p.reqs.Inc(owner, "breaker_open")
		return false
	}
	var resp *http.Response
	var body []byte
	err := p.retry(r.Context(), func(attempt int) error {
		if attempt > 0 {
			p.reqs.Inc(owner, "retry")
		}
		start := time.Now()
		var err error
		// A forwarded answer has no read cap: it is the client's own
		// query, answered by the owner.
		resp, body, err = p.call(r.Context(), http.MethodGet, peer.URL+r.URL.RequestURI(), nil, math.MaxInt64,
			forwardedFromHeader, p.self, ringEpochHeader, strconv.FormatUint(p.epoch(), 10))
		if err != nil {
			return err
		}
		// Only verified 200s relay. Anything else (the owner shedding,
		// degraded handling of our own bug, a proxy error page) answers
		// better from the local compute path, and a corrupted or
		// truncated body is retried instead of reaching the client.
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("owner %s answered %d", owner, resp.StatusCode)
		}
		sum := sha256.Sum256(body)
		if got := resp.Header.Get(bodySumHeader); got != hex.EncodeToString(sum[:]) {
			return fmt.Errorf("owner %s body checksum mismatch (len %d)", owner, len(body))
		}
		p.forwardSeconds.Observe(time.Since(start).Seconds())
		return nil
	})
	p.breakers.done(owner, probe, err)
	if err != nil {
		return false
	}
	p.reqs.Inc(owner, "ok")
	relayResponse(w, resp.StatusCode, resp.Header, body, owner)
	p.noteEpochHeader(resp.Header.Get(ringEpochHeader), peer)
	return true
}

// noteEpochHeader reacts to a peer's advertised membership epoch after
// the client response is already written: when the peer is ahead, this
// replica pulls the newer membership from it. Lagging the fleet costs
// only extra forward hops (answers stay bit-identical), so the pull is
// best-effort and off the client's critical path.
func (p *replication) noteEpochHeader(value string, peer Peer) {
	if value == "" {
		return
	}
	theirs, err := strconv.ParseUint(value, 10, 64)
	if err != nil || theirs <= p.epoch() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.ForwardTimeout)
	defer cancel()
	p.syncMembershipFrom(ctx, peer)
}

// relayResponse writes a verified owner response to the client,
// preserving the content type and degraded tag and stamping the
// forwarding headers.
func relayResponse(w http.ResponseWriter, status int, header http.Header, body []byte, owner string) {
	for _, h := range [...]string{"Content-Type", degradedHeader} {
		if v := header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(forwardHeader, forwardOutcomeForwarded)
	w.Header().Set(forwardPeerHeader, owner)
	w.WriteHeader(status)
	w.Write(body)
}

// peerIntegrity stamps X-LVF2-Body-SHA256 on responses to forwarded
// requests: the owner buffers the response, checksums it and sends the
// sum as a header, so the forwarding side can detect a corrupted link.
// It also carries both legs of epoch propagation: the response
// advertises this replica's membership epoch, and a request stamped
// with a newer epoch makes this replica pull the sender's membership
// before serving, so the ownership decision below uses the freshest
// ring it can know. Non-forwarded traffic streams through untouched.
func (s *Server) peerIntegrity(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(forwardedFromHeader) == "" {
			next.ServeHTTP(w, r)
			return
		}
		if p := s.repl; p != nil {
			p.noteRequestEpoch(r)
			w.Header().Set(ringEpochHeader, strconv.FormatUint(p.epoch(), 10))
		}
		bw := &bufferedResponse{header: make(http.Header)}
		next.ServeHTTP(bw, r)
		for k, vs := range bw.header {
			w.Header()[k] = vs
		}
		sum := sha256.Sum256(bw.buf.Bytes())
		w.Header().Set(bodySumHeader, hex.EncodeToString(sum[:]))
		if bw.status == 0 {
			bw.status = http.StatusOK
		}
		w.WriteHeader(bw.status)
		w.Write(bw.buf.Bytes())
	})
}

// bufferedResponse captures a handler's response so a checksum header
// can precede the body on the wire.
type bufferedResponse struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.buf.Write(p)
}

// handlePeerSnapshot serves the peer warm-state surface.
//
// GET ?owner=ID[&max_bytes=N] exports the slice of this replica's model
// cache owned by ID under the current ring, in the snapshot wire format
// (which carries its own checksum trailer). The export is capped at
// min(max_bytes, SnapshotMaxBytes); a truncated export keeps the newest
// entries and increments lvf2d_peer_snapshot_truncated_total. A
// restarting replica pulls this from every live peer to warm-seed the
// keys it owns.
//
// POST ingests a snapshot slice pushed by a peer — the key-handoff leg
// of a graceful drain — and merges it into the model cache.
func (s *Server) handlePeerSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handlePeerSnapshotIngest(w, r)
		return
	}
	p := s.repl
	v := p.view()
	owner := r.URL.Query().Get("owner")
	if !v.membership.Has(owner) {
		fail(w, r, badRequest("owner %q is not a ring member (members: %s)",
			owner, strings.Join(v.ring.Members(), ", ")))
		return
	}
	maxBytes := p.opts.SnapshotMaxBytes
	if raw := r.URL.Query().Get("max_bytes"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n <= 0 {
			fail(w, r, badRequest("max_bytes %q must be a positive integer", raw))
			return
		}
		if n < maxBytes {
			maxBytes = n
		}
	}
	slice, truncated := s.cache.SnapshotModelsCapped(func(k modelcache.ModelKey) bool {
		return v.ring.Owner(k.RingKey()) == owner
	}, int(maxBytes))
	if truncated {
		p.snapTruncated.Inc()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(slice)))
	w.Header().Set(ringEpochHeader, strconv.FormatUint(v.epoch, 10))
	w.Write(slice)
}

// handlePeerSnapshotIngest merges a pushed snapshot slice (drain
// handoff) into the local cache. The slice's own checksum plus
// per-entry validation guard the merge; a bad body changes nothing.
func (s *Server) handlePeerSnapshotIngest(w http.ResponseWriter, r *http.Request) {
	p := s.repl
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.opts.SnapshotMaxBytes))
	if err != nil {
		fail(w, r, badRequest("snapshot body exceeds %d bytes or was cut short: %v", p.opts.SnapshotMaxBytes, err))
		return
	}
	n, err := s.cache.RestoreModels(body)
	if err != nil {
		fail(w, r, badRequest("snapshot rejected: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"restored": n})
}

// WarmSeedFromPeers pulls this replica's owned-key snapshot slice from
// every peer and merges the entries into the model cache, returning the
// total restored. Entries are bit-identical across replicas (the
// fitters are deterministic), so merging overlapping slices is
// harmless. Peers that are down, partitioned or serving corrupt bytes
// are skipped after ForwardAttempts tries each; warm-seeding is an
// optimisation, never a boot dependency.
func (s *Server) WarmSeedFromPeers(ctx context.Context) int {
	p := s.repl
	if p == nil {
		return 0
	}
	v := p.view()
	total := 0
	for _, id := range v.order {
		slice, err := p.fetchSnapshotSlice(ctx, v.peers[id])
		if err != nil {
			s.cfg.Logger.Warn("lvf2d: warm-seed skipped peer", "peer", id, "reason", err.Error())
			continue
		}
		n, err := s.cache.RestoreModels(slice)
		if err != nil {
			s.cfg.Logger.Warn("lvf2d: warm-seed slice rejected", "peer", id, "reason", err.Error())
			continue
		}
		total += n
	}
	if total > 0 {
		p.warmSeeded.Add(int64(total))
		s.cfg.Logger.Info("lvf2d: warm-seeded owned keys from peers", "models", total)
	}
	return total
}

// fetchSnapshotSlice retrieves one peer's owned-key export, retrying
// transport errors and corrupt payloads (the snapshot's own checksum
// catches those) under the usual per-attempt deadline.
func (p *replication) fetchSnapshotSlice(ctx context.Context, peer Peer) ([]byte, error) {
	u := peer.URL + "/v1/peer/snapshot?owner=" + url.QueryEscape(p.self) +
		"&max_bytes=" + strconv.FormatInt(p.opts.SnapshotMaxBytes, 10)
	var slice []byte
	err := p.retry(ctx, func(int) error {
		// Reading one byte past the cap tells a body at the cap from an
		// oversize one: a huge (or lying) donor can never balloon a
		// booting peer's heap past the configured cap.
		cap := p.opts.SnapshotMaxBytes
		resp, body, err := p.call(ctx, http.MethodGet, u, nil, cap+1)
		switch {
		case err != nil:
			return err
		case int64(len(body)) > cap:
			return fmt.Errorf("peer snapshot exceeds %d-byte cap", cap)
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("peer answered %d", resp.StatusCode)
		}
		// Validate before accepting so a corrupted body retries here
		// rather than surfacing from RestoreModels after the retry budget
		// is gone.
		if _, err := modelcache.DecodeSnapshot(body); err != nil {
			return err
		}
		slice = body
		return nil
	})
	return slice, err
}

// ProbePeersOnce probes every peer's /readyz once, updating the
// probe-driven health map. A 200 also force-closes the peer's breaker,
// so recovery latency after a restart is one probe interval instead of
// a full backoff window. A peer advertising a newer membership epoch in
// its probe body is synced from — crash-leave confirmations and
// operator epoch bumps reach partitioned stragglers this way.
// RunListener drives this on ProbeInterval; the chaos suite calls it
// directly.
func (s *Server) ProbePeersOnce(ctx context.Context) {
	p := s.repl
	if p == nil {
		return
	}
	v := p.view()
	for _, id := range v.order {
		alive, theirEpoch := p.probeOne(ctx, v.peers[id])
		p.setHealthy(id, alive)
		if alive {
			p.breakers.heal(id)
		}
		if theirEpoch > p.epoch() {
			p.syncMembershipFrom(ctx, v.peers[id])
		}
	}
}

// probeOne probes peer's /readyz, reporting liveness (a 200) and the
// membership epoch the peer advertises. A warming or draining peer
// answers non-200 — not forwardable — but its epoch still counts.
func (p *replication) probeOne(ctx context.Context, peer Peer) (bool, uint64) {
	resp, body, err := p.call(ctx, http.MethodGet, peer.URL+"/readyz", nil, peerJSONCap)
	if err != nil {
		return false, 0
	}
	var parsed readyzResponse
	var theirEpoch uint64
	if json.Unmarshal(body, &parsed) == nil && parsed.Ring != nil {
		theirEpoch = parsed.Ring.Epoch
	}
	return resp.StatusCode == http.StatusOK, theirEpoch
}

// ------------------------------------------------------------- readyz DTO

// readyzRing and readyzPeer extend the /readyz body with ring
// membership and per-peer link state when replication is configured.
type readyzRing struct {
	Self         string   `json:"self"`
	Members      []string `json:"members"`
	VirtualNodes int      `json:"virtual_nodes"`
	Seed         uint64   `json:"seed"`
	Epoch        uint64   `json:"epoch"`
	Drained      bool     `json:"drained,omitempty"`
}

type readyzPeer struct {
	ID      string `json:"id"`
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
	Healthy bool   `json:"healthy"`
}

type readyzResponse struct {
	Status string       `json:"status"`
	Ring   *readyzRing  `json:"ring,omitempty"`
	Peers  []readyzPeer `json:"peers,omitempty"`
}

// readyzBody assembles the /readyz JSON for the current state.
func (s *Server) readyzBody(status string) readyzResponse {
	resp := readyzResponse{Status: status}
	p := s.repl
	if p == nil {
		return resp
	}
	v := p.view()
	resp.Ring = &readyzRing{
		Self:         p.self,
		Members:      v.ring.Members(),
		VirtualNodes: v.ring.VirtualNodes(),
		Seed:         v.ring.Seed(),
		Epoch:        v.epoch,
		Drained:      v.drained,
	}
	for _, id := range v.order {
		resp.Peers = append(resp.Peers, readyzPeer{
			ID:      id,
			URL:     v.peers[id].URL,
			Breaker: p.breakers.stateOf(id).String(),
			Healthy: p.isHealthy(id),
		})
	}
	return resp
}
