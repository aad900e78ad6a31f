package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"lvf2/internal/mc"
	"lvf2/internal/modelcache"
)

// Dynamic fleet membership (DESIGN.md §17). The replica fleet advances
// through epoch-versioned membership documents, one epoch at a time —
// the reconfiguration discipline of replicated-state systems applied to
// a deterministic recompute-on-miss cache. A document reaches the fleet
// through three seams, all built on the existing protocol surface:
//
//   - POST /v1/fleet/membership — an epoch-guarded CAS admin endpoint:
//     only epoch == current+1 is accepted, so two racing operators
//     cannot fork the ring.
//   - the membership file watch (stdlib mtime + SHA-256 polling): an
//     operator edit is adopted locally and announced fleet-wide.
//   - epoch propagation piggybacked on forwarding (X-LVF2-Ring-Epoch)
//     and the /readyz probe loop: any replica that learns of a newer
//     epoch pulls the full document from the peer advertising it.
//
// Correctness never depends on how fast an epoch spreads: a lagging
// replica forwards to stale owners or computes locally, and the fitters
// are deterministic, so every answer stays bit-identical — staleness
// costs warmth, not truth.

// Membership is the epoch-versioned fleet document: the complete member
// list (IDs and base URLs) at a given epoch. All replicas build the
// same ring from the same document.
type Membership struct {
	Epoch   uint64 `json:"epoch"`
	Members []Peer `json:"members"`
}

// Validate vets a membership document: at least one member, non-empty
// unique IDs, and unique well-formed base URLs. It is the only fleet
// check: a static fleet is checked as its epoch-0 document, where a
// replica that lists itself is a duplicate ID and a missing self ID an
// empty one. An empty URL is tolerated (a replica never dials itself)
// but means the member cannot be announced to.
func (m Membership) Validate() error {
	if len(m.Members) == 0 {
		return fmt.Errorf("membership: no members")
	}
	ids := map[string]bool{}
	urls := map[string]bool{}
	for _, mem := range m.Members {
		if mem.ID == "" {
			return fmt.Errorf("membership: member without an ID (url %q)", mem.URL)
		}
		if ids[mem.ID] {
			return fmt.Errorf("membership: duplicate member ID %q", mem.ID)
		}
		ids[mem.ID] = true
		if mem.URL == "" {
			continue
		}
		if err := validateBaseURL(mem.URL); err != nil {
			return fmt.Errorf("membership: member %q: %v", mem.ID, err)
		}
		if urls[mem.URL] {
			return fmt.Errorf("membership: duplicate member URL %q", mem.URL)
		}
		urls[mem.URL] = true
	}
	return nil
}

// clone deep-copies the document so an installed membership can never
// alias a caller's slice.
func (m Membership) clone() Membership {
	m.Members = append([]Peer(nil), m.Members...)
	return m
}

// Has reports whether id is a member.
func (m Membership) Has(id string) bool {
	for _, mem := range m.Members {
		if mem.ID == id {
			return true
		}
	}
	return false
}

// equal reports whether two documents agree on epoch and member set
// (order-independent).
func (m Membership) equal(other Membership) bool {
	if m.Epoch != other.Epoch || len(m.Members) != len(other.Members) {
		return false
	}
	byID := make(map[string]string, len(m.Members))
	for _, mem := range m.Members {
		byID[mem.ID] = mem.URL
	}
	for _, mem := range other.Members {
		u, ok := byID[mem.ID]
		if !ok || u != mem.URL {
			return false
		}
	}
	return true
}

// validateBaseURL enforces the bare-base-URL rule of membership
// members: absolute http(s), no path, query or fragment (forwarding
// appends request URIs verbatim).
func validateBaseURL(raw string) error {
	u, err := url.Parse(raw)
	if err != nil {
		return fmt.Errorf("bad URL: %v", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("unsupported scheme %q (want http or https)", u.Scheme)
	}
	if u.Host == "" {
		return fmt.Errorf("missing host")
	}
	if (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return fmt.Errorf("URL must be a bare base (no path, query or fragment)")
	}
	return nil
}

// ParseMembership decodes and validates a membership document.
func ParseMembership(b []byte) (Membership, error) {
	var m Membership
	if err := json.Unmarshal(b, &m); err != nil {
		return Membership{}, fmt.Errorf("membership: %w", err)
	}
	for i := range m.Members {
		m.Members[i].URL = strings.TrimRight(m.Members[i].URL, "/")
	}
	if err := m.Validate(); err != nil {
		return Membership{}, err
	}
	return m, nil
}

// LoadMembershipFile reads and validates a membership document from
// disk (cmd/lvf2d's -membership flag and the config watcher use this).
func LoadMembershipFile(path string) (Membership, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Membership{}, err
	}
	return ParseMembership(b)
}

// ------------------------------------------------------- adoption paths

// adoptMembership installs m when it is strictly newer than the current
// epoch, opening a transition window (dual-read via the previous ring
// until the next anti-entropy round). This is the loose propagation
// path — probe piggyback, forwarding headers, config watch; the HTTP
// CAS endpoint enforces the stricter one-epoch-at-a-time rule.
func (p *replication) adoptMembership(m Membership, reason string) (bool, error) {
	if err := m.Validate(); err != nil {
		return false, err
	}
	p.mu.Lock()
	stale := m.Epoch <= p.fleet.epoch
	p.mu.Unlock()
	if stale {
		return false, nil
	}
	if err := p.install(m, true); err != nil {
		return false, err
	}
	p.logger.Info("lvf2d: adopted membership",
		"epoch", m.Epoch, "members", len(m.Members), "reason", reason)
	p.persistMembership(m)
	return true, nil
}

// persistMembership writes the adopted document back to the membership
// file (when configured) so a restart boots at the latest epoch. Best
// effort: a write failure costs catch-up time on the next boot, nothing
// else.
func (p *replication) persistMembership(m Membership) {
	path := p.opts.MembershipPath
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		p.logger.Warn("lvf2d: membership persist failed", "path", path, "reason", err.Error())
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		p.logger.Warn("lvf2d: membership persist failed", "path", path, "reason", err.Error())
	}
}

// syncMembershipFrom pulls a peer's full membership document and adopts
// it when newer — the second leg of epoch propagation: the epoch header
// or probe body says "newer exists", this fetch says what it is.
func (p *replication) syncMembershipFrom(ctx context.Context, peer Peer) {
	if peer.URL == "" {
		return
	}
	resp, body, err := p.call(ctx, http.MethodGet, peer.URL+"/v1/fleet/membership", nil, peerJSONCap)
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	m, err := ParseMembership(body)
	if err != nil {
		return
	}
	p.adoptMembership(m, "peer-sync:"+peer.ID)
}

// noteRequestEpoch reacts to the epoch a forwarding peer stamped on its
// request: when the sender is ahead, pull the newer membership from it
// before serving, so the ownership decision below uses the freshest
// ring this replica can know.
func (p *replication) noteRequestEpoch(r *http.Request) {
	value := r.Header.Get(ringEpochHeader)
	from := r.Header.Get(forwardedFromHeader)
	if value == "" || from == "" {
		return
	}
	theirs, err := strconv.ParseUint(value, 10, 64)
	if err != nil || theirs <= p.epoch() {
		return
	}
	v := p.view()
	peer, ok := v.peers[from]
	if !ok {
		peer, ok = v.prevPeers[from]
	}
	if !ok {
		return
	}
	p.syncMembershipFrom(r.Context(), peer)
}

// ------------------------------------------------------ config watcher

// CheckMembershipFile polls the membership file once: an mtime change
// triggers a read, a SHA-256 change triggers a parse, and a strictly
// newer valid document is adopted and announced to the fleet. The
// watcher is the operator seam — edit the file on any one replica and
// the whole fleet converges. RunListener drives this on
// MembershipPollInterval; tests call it directly.
func (s *Server) CheckMembershipFile(ctx context.Context) {
	p := s.repl
	if p == nil || p.opts.MembershipPath == "" {
		return
	}
	fi, err := os.Stat(p.opts.MembershipPath)
	if err != nil {
		return
	}
	p.mu.Lock()
	unchanged := fi.ModTime().Equal(p.watchMod)
	p.mu.Unlock()
	if unchanged {
		return
	}
	b, err := os.ReadFile(p.opts.MembershipPath)
	if err != nil {
		return
	}
	sum := sha256.Sum256(b)
	p.mu.Lock()
	sameSum := sum == p.watchSum
	p.watchMod = fi.ModTime()
	p.watchSum = sum
	p.mu.Unlock()
	if sameSum {
		return
	}
	m, err := ParseMembership(b)
	if err != nil {
		p.logger.Warn("lvf2d: membership file rejected",
			"path", p.opts.MembershipPath, "reason", err.Error())
		return
	}
	adopted, err := p.adoptMembership(m, "config-watch")
	if err != nil {
		p.logger.Warn("lvf2d: membership file rejected",
			"path", p.opts.MembershipPath, "reason", err.Error())
		return
	}
	if adopted {
		s.AnnounceMembership(ctx, m)
	}
}

// --------------------------------------------------- announce and join

// AnnounceMembership offers document m to every member (except self)
// over the CAS endpoint, returning how many accepted it. A peer that
// answers 409 with a newer document is synced from instead — announce
// never forces, it converges.
func (s *Server) AnnounceMembership(ctx context.Context, m Membership) int {
	p := s.repl
	if p == nil {
		return 0
	}
	body, err := json.Marshal(m)
	if err != nil {
		return 0
	}
	updated := 0
	for _, mem := range m.Members {
		if mem.ID == p.self || mem.URL == "" {
			continue
		}
		if p.postMembership(ctx, mem, body) {
			updated++
		}
	}
	return updated
}

// postMembership CAS-posts a document to one peer, retrying transport
// errors. On 409 it adopts the peer's answer when newer.
func (p *replication) postMembership(ctx context.Context, peer Peer, body []byte) bool {
	accepted := false
	err := p.retry(ctx, func(int) error {
		resp, respBody, err := p.call(ctx, http.MethodPost, peer.URL+"/v1/fleet/membership", body,
			peerJSONCap, "Content-Type", "application/json")
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			accepted = true
		case http.StatusConflict:
			var cr membershipConflict
			if json.Unmarshal(respBody, &cr) == nil && cr.Current.Epoch > 0 {
				p.adoptMembership(cr.Current, "cas-conflict:"+peer.ID)
			}
		default:
			return fmt.Errorf("peer answered %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		p.logger.Warn("lvf2d: membership announce failed", "peer", peer.ID, "reason", err.Error())
	}
	return accepted
}

// JoinFleet performs the graceful-join sequence for a replica booted
// with a membership document that already includes it at epoch N+1:
// enter the warming state (readyz answers 503 "warming" so load
// balancers hold traffic), announce the document to the incumbents,
// pull the newly-owned ranges from their previous owners via the
// snapshot machinery, then leave warming. Returns the number of models
// warm-seeded. Unreachable incumbents cost warmth, never correctness.
func (s *Server) JoinFleet(ctx context.Context) int {
	p := s.repl
	if p == nil {
		return 0
	}
	p.warming.Store(true)
	defer p.warming.Store(false)
	m := p.view().membership
	s.AnnounceMembership(ctx, m)
	return s.WarmSeedFromPeers(ctx)
}

// --------------------------------------------------------- HTTP surface

// membershipConflict is the 409 body of the CAS endpoint: the reason
// plus the authoritative current document, so the rejected poster can
// catch up and retry from the right epoch.
type membershipConflict struct {
	Error   string     `json:"error"`
	Current Membership `json:"membership"`
}

// handleFleetMembership serves the admin membership surface.
//
// GET returns the current document. POST is an epoch-guarded CAS:
// exactly epoch == current+1 is accepted (an identical redelivery of
// the current document is acknowledged idempotently); anything else
// answers 409 with the current document.
func (s *Server) handleFleetMembership(w http.ResponseWriter, r *http.Request) {
	p := s.repl
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, p.view().membership)
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			fail(w, r, badRequest("membership body: %v", err))
			return
		}
		m, err := ParseMembership(body)
		if err != nil {
			fail(w, r, badRequest("%v", err))
			return
		}
		cur := p.view().membership
		switch {
		case m.equal(cur):
			writeJSON(w, http.StatusOK, cur) // idempotent redelivery
		case m.Epoch == cur.Epoch+1:
			if err := p.install(m, true); err != nil {
				fail(w, r, badRequest("%v", err))
				return
			}
			p.logger.Info("lvf2d: adopted membership",
				"epoch", m.Epoch, "members", len(m.Members), "reason", "cas")
			p.persistMembership(m)
			writeJSON(w, http.StatusOK, m)
		default:
			writeJSON(w, http.StatusConflict, membershipConflict{
				Error: fmt.Sprintf("epoch %d does not follow current epoch %d (CAS advances one epoch at a time)",
					m.Epoch, cur.Epoch),
				Current: cur,
			})
		}
	default:
		fail(w, r, &httpError{code: http.StatusMethodNotAllowed, msg: "use GET or POST"})
	}
}

// drainResponse reports a completed graceful drain.
type drainResponse struct {
	Epoch        uint64 `json:"epoch"`
	HandedOff    int    `json:"handed_off"`
	PeersUpdated int    `json:"peers_updated"`
	Note         string `json:"note,omitempty"`
}

// handleFleetDrain serves POST /v1/fleet/drain: the graceful-leave
// sequence. Every locally cached model is pushed to its next-epoch
// owner (key handoff), the shrunk membership is announced to the
// survivors, and finally this replica adopts it too — leaving the ring
// while still serving (misses now always forward or compute locally).
func (s *Server) handleFleetDrain(w http.ResponseWriter, r *http.Request) {
	p := s.repl
	if r.Method != http.MethodPost {
		fail(w, r, &httpError{code: http.StatusMethodNotAllowed, msg: "use POST"})
		return
	}
	v := p.view()
	if v.drained {
		writeJSON(w, http.StatusOK, drainResponse{Epoch: v.epoch, Note: "already drained"})
		return
	}
	remaining := make([]Peer, 0, len(v.membership.Members))
	ids := make([]string, 0, len(v.membership.Members))
	for _, mem := range v.membership.Members {
		if mem.ID == p.self {
			continue
		}
		remaining = append(remaining, mem)
		ids = append(ids, mem.ID)
	}
	if len(remaining) == 0 {
		writeJSON(w, http.StatusConflict, membershipConflict{
			Error:   "cannot drain the last fleet member",
			Current: v.membership,
		})
		return
	}
	nextRing, _, err := v.ring.Derive(ids)
	if err != nil {
		fail(w, r, badRequest("%v", err))
		return
	}
	// Key handoff before the epoch flips: push every locally cached
	// model to the member that will own it under the next ring, so the
	// fleet stays warm through the drain.
	handed := 0
	for _, mem := range remaining {
		mem := mem
		keep := func(k modelcache.ModelKey) bool {
			return nextRing.Owner(k.RingKey()) == mem.ID
		}
		if n, _ := s.cache.DigestModels(keep); n == 0 || mem.URL == "" {
			continue
		}
		slice, truncated := s.cache.SnapshotModelsCapped(keep, int(p.opts.SnapshotMaxBytes))
		if truncated {
			p.snapTruncated.Inc()
		}
		handed += p.pushSnapshot(r.Context(), mem, slice)
	}
	p.handoffModels.Add(int64(handed))
	next := Membership{Epoch: v.epoch + 1, Members: remaining}
	updated := s.AnnounceMembership(r.Context(), next)
	if _, err := p.adoptMembership(next, "drain"); err != nil {
		fail(w, r, badRequest("%v", err))
		return
	}
	s.cfg.Logger.Info("lvf2d: drained from fleet",
		"epoch", next.Epoch, "handed_off", handed, "peers_updated", updated)
	writeJSON(w, http.StatusOK, drainResponse{
		Epoch: next.Epoch, HandedOff: handed, PeersUpdated: updated,
	})
}

// pushSnapshot POSTs a snapshot slice to a peer's ingest endpoint,
// returning how many models the peer reported restoring.
func (p *replication) pushSnapshot(ctx context.Context, peer Peer, slice []byte) int {
	var out struct {
		Restored int `json:"restored"`
	}
	err := p.retry(ctx, func(int) error {
		resp, body, err := p.call(ctx, http.MethodPost, peer.URL+"/v1/peer/snapshot", slice,
			peerJSONCap, "Content-Type", "application/octet-stream")
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("peer answered %d", resp.StatusCode)
		}
		return json.Unmarshal(body, &out)
	})
	if err != nil {
		p.logger.Warn("lvf2d: drain handoff failed", "peer", peer.ID, "reason", err.Error())
		return 0
	}
	return out.Restored
}

// ---------------------------------------------------------- anti-entropy

// peerDigest is the cheap per-owner key-set comparison the anti-entropy
// loop exchanges before deciding to ship a snapshot slice. Digest is
// hex-encoded: a uint64 does not survive JSON's float64 numbers.
type peerDigest struct {
	Epoch  uint64 `json:"epoch"`
	Owner  string `json:"owner"`
	Count  int    `json:"count"`
	Digest string `json:"digest"`
}

// handlePeerDigest serves GET /v1/peer/digest?owner=ID: the count and
// order-independent digest of this replica's cached models owned by ID
// under the current ring.
func (s *Server) handlePeerDigest(w http.ResponseWriter, r *http.Request) {
	p := s.repl
	v := p.view()
	owner := r.URL.Query().Get("owner")
	if !v.membership.Has(owner) {
		fail(w, r, badRequest("owner %q is not a ring member", owner))
		return
	}
	count, digest := s.cache.DigestModels(func(k modelcache.ModelKey) bool {
		return v.ring.Owner(k.RingKey()) == owner
	})
	writeJSON(w, http.StatusOK, peerDigest{
		Epoch: v.epoch, Owner: owner, Count: count,
		Digest: strconv.FormatUint(digest, 16),
	})
}

// fetchDigest pulls one peer's digest of this replica's owned keys.
func (p *replication) fetchDigest(ctx context.Context, peer Peer) (peerDigest, error) {
	var d peerDigest
	resp, body, err := p.call(ctx, http.MethodGet, peer.URL+"/v1/peer/digest?owner="+url.QueryEscape(p.self), nil, peerJSONCap)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("peer answered %d", resp.StatusCode)
	}
	if err == nil {
		err = json.Unmarshal(body, &d)
	}
	return d, err
}

// AntiEntropyOnce runs one repair round: for every healthy peer,
// compare its digest of this replica's owned keys against the local
// one, and merge the peer's slice when they diverge — re-seeding ranges
// that moved here in a rebalance or went stale across a partition. The
// round closes the transition window (the previous-epoch ring is
// dropped): after one round the current owners hold their ranges warm.
// Returns the number of models repaired. RunListener drives this on
// AntiEntropyInterval; tests and the chaos suite call it directly.
func (s *Server) AntiEntropyOnce(ctx context.Context) int {
	p := s.repl
	if p == nil {
		return 0
	}
	v := p.view()
	repaired := 0
	if !v.drained {
		keep := func(k modelcache.ModelKey) bool {
			return v.ring.Owner(k.RingKey()) == p.self
		}
		selfCount, selfDigest := s.cache.DigestModels(keep)
		for _, id := range v.order {
			peer := v.peers[id]
			if !p.isHealthy(id) || peer.URL == "" {
				continue
			}
			d, err := p.fetchDigest(ctx, peer)
			if err != nil {
				continue
			}
			if d.Epoch != v.epoch {
				// Epochs reconcile through probes and forwarding; a
				// cross-epoch digest compares different ownership maps.
				continue
			}
			theirs, err := strconv.ParseUint(d.Digest, 16, 64)
			if err != nil || d.Count == 0 {
				continue
			}
			if d.Count == selfCount && theirs == selfDigest {
				continue // identical owned sets
			}
			p.mu.Lock()
			seen := p.lastMerged[id] == theirs
			p.mu.Unlock()
			if seen {
				// Merging is monotone: once a peer's exact state has been
				// folded in, a repeat digest means we are a superset, not
				// divergent.
				continue
			}
			slice, err := p.fetchSnapshotSlice(ctx, peer)
			if err != nil {
				continue
			}
			n, err := s.cache.RestoreModels(slice)
			if err != nil {
				continue
			}
			repaired += n
			p.mu.Lock()
			p.lastMerged[id] = theirs
			p.mu.Unlock()
			selfCount, selfDigest = s.cache.DigestModels(keep)
		}
	}
	p.clearTransition()
	p.aeRounds.Inc()
	if repaired > 0 {
		p.aeRepaired.Add(int64(repaired))
		s.cfg.Logger.Info("lvf2d: anti-entropy repaired owned keys", "models", repaired)
	}
	return repaired
}

// ------------------------------------------------------------- jitter

// Background-loop jitter salts: one per loop so a replica's probe,
// anti-entropy and config-watch loops land on different phases too.
const (
	probeJitterSalt       = 0x9e3779b97f4a7c15
	antiEntropyJitterSalt = 0xbf58476d1ce4e5b9
	membershipJitterSalt  = 0x94d049bb133111eb
)

// loopJitter derives a deterministic per-replica startup delay in
// [0, interval): a fleet restarted together must not probe (or
// digest-sweep) in lockstep, and a restart of the same replica must
// keep the same phase so tests can pin it.
func loopJitter(selfID string, salt uint64, interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(selfID))
	f := mc.NewRNG(h.Sum64() ^ salt).Float64()
	return time.Duration(f * float64(interval))
}

// runJittered sleeps the replica's deterministic jitter, then runs fn
// every interval until ctx ends.
func runJittered(ctx context.Context, selfID string, salt uint64, interval time.Duration, fn func(context.Context)) {
	select {
	case <-time.After(loopJitter(selfID, salt, interval)):
	case <-ctx.Done():
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fn(ctx)
		case <-ctx.Done():
			return
		}
	}
}
