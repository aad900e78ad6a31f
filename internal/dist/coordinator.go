package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lvf2/internal/checkpoint"
	"lvf2/internal/libbuild"
	"lvf2/internal/obs"
)

// ErrSpecMismatch marks a submission stamped with a different config
// fingerprint: the worker characterised under a different seed, grid or
// library, so its bytes must never reach the journal.
var ErrSpecMismatch = errors.New("dist: config fingerprint mismatch")

// errUnknownUnit marks a submission for a key outside the build plan.
var errUnknownUnit = errors.New("dist: unit is not in the build plan")

// CoordinatorConfig tunes a coordinator.
type CoordinatorConfig struct {
	// Build is the library build to distribute. Its Journal is required:
	// the journal IS the coordinator's durable state — leases, worker
	// registrations and death counts are soft and rebuilt from it after
	// a crash.
	Build libbuild.Config
	// LeaseTTL bounds how long a silent worker keeps a lease
	// (default 10s). A lease not renewed within the TTL is reclaimed and
	// its units re-leased.
	LeaseTTL time.Duration
	// Heartbeat is the renewal interval advertised to workers
	// (default LeaseTTL/3).
	Heartbeat time.Duration
	// PollWait is the wait hint returned when no unit is currently
	// leasable (default 500ms).
	PollWait time.Duration
	// DeathBudget is how many worker deaths (lease expiries) one unit
	// may cause before it is treated as poison and salvaged
	// (default 2). It is the only budget a unit has: a failure a worker
	// reports sends the unit straight to salvage, since its fit is pure,
	// but a lease expiry blames the environment as much as the unit.
	// Deaths are counted per coordinator incarnation and not journaled.
	DeathBudget int
	// Now is the clock seam (default time.Now). Tests drive lease expiry
	// with a fake clock; every lease, heartbeat and completion sweeps the
	// leases it has let expire first.
	Now func() time.Time
	// Log receives coordinator events (default: discarded).
	Log io.Writer
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.PollWait <= 0 {
		c.PollWait = 500 * time.Millisecond
	}
	if c.DeathBudget <= 0 {
		c.DeathBudget = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// unitState is one plan unit's scheduling state. terminal mirrors the
// journal; everything else is soft.
type unitState struct {
	ref      libbuild.UnitRef
	pair     int // index of the (Delay, Transition) sibling group
	terminal bool
	deaths   int // workers this unit's lease died under (this incarnation)
	salvage  bool
	lastErr  string // the cause that sent the unit to salvage
	leaseID  uint64 // 0 = not leased
}

// activeLease is one outstanding grant.
type activeLease struct {
	id      uint64
	worker  string
	keys    []checkpoint.Key
	expiry  time.Time
	salvage bool
}

// Coordinator leases the units of one journaled build to workers and
// journals their results. All methods are safe for concurrent use.
type Coordinator struct {
	cfg     CoordinatorConfig
	fp      checkpoint.Fingerprint
	metrics *obs.HTTPMetrics

	mu        sync.Mutex
	units     []*unitState
	byKey     map[checkpoint.Key]*unitState
	leases    map[uint64]*activeLease
	nextLease uint64
	remaining int
	workers   map[string]bool
	done      chan struct{}
}

// NewCoordinator plans the build and restores scheduling state from the
// journal: every journaled unit is terminal. Nothing else survives a
// restart — leases, death counts and pending salvage start empty, which
// is safe: stale leases on dead workers simply never submit, live
// workers rejoin, and a unit that was bound for salvage fails again on
// its next lease and is routed there again.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.Build.Journal == nil {
		return nil, errors.New("dist: coordinator requires a journal")
	}
	refs, err := libbuild.Plan(cfg.Build)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		fp:      cfg.Build.Fingerprint(),
		metrics: obs.NewHTTPMetrics(obs.Default(), "lvf2_dist"),
		byKey:   make(map[checkpoint.Key]*unitState, len(refs)),
		leases:  make(map[uint64]*activeLease),
		workers: make(map[string]bool),
		done:    make(chan struct{}),
	}
	for i, ref := range refs {
		u := &unitState{ref: ref, pair: i / 2, terminal: cfg.Build.Journal.Terminal(ref.Key)}
		c.units = append(c.units, u)
		c.byKey[ref.Key] = u
		if !u.terminal {
			c.remaining++
		}
	}
	unitsPending.Set(int64(c.remaining))
	cfg.Build.Journal.SetResumeSkipRatio(len(refs)-c.remaining, len(refs))
	if c.remaining == 0 {
		close(c.done)
	}
	fmt.Fprintf(cfg.Log, "dist: coordinator: %d units planned, %d already terminal\n",
		len(refs), len(refs)-c.remaining)
	return c, nil
}

// Done reports whether every unit is journaled terminal.
func (c *Coordinator) Done() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the build completes or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sweepLocked reclaims every lease whose TTL lapsed: each of its
// still-pending units goes back to the queue with one more death on its
// account, and a unit that has now outlived DeathBudget workers is
// routed to the salvage ladder instead of being re-run as-is.
func (c *Coordinator) sweepLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expiry) {
			continue
		}
		delete(c.leases, id)
		leasesExpired.Inc()
		workerDeaths.Inc()
		delete(c.workers, l.worker)
		workersGauge.Set(int64(len(c.workers)))
		for _, k := range l.keys {
			u := c.byKey[k]
			if u == nil || u.terminal || u.leaseID != id {
				continue
			}
			u.leaseID = 0
			u.deaths++
			if u.deaths >= c.cfg.DeathBudget && !u.salvage {
				u.salvage = true
				u.lastErr = fmt.Sprintf("unit outlived %d workers (last lease %d on %s expired)",
					u.deaths, id, l.worker)
				fmt.Fprintf(c.cfg.Log, "dist: poison unit %s: %s\n", k, u.lastErr)
			}
		}
		fmt.Fprintf(c.cfg.Log, "dist: lease %d on worker %s expired and was reclaimed\n", id, l.worker)
	}
}

// Join registers a worker and hands it the build.
func (c *Coordinator) Join(req JoinRequest) JoinResponse {
	c.mu.Lock()
	if !c.workers[req.Worker] {
		c.workers[req.Worker] = true
		workersGauge.Set(int64(len(c.workers)))
	}
	c.mu.Unlock()
	fmt.Fprintf(c.cfg.Log, "dist: worker %s joined\n", req.Worker)
	return JoinResponse{
		Spec:        SpecFromConfig(c.cfg.Build),
		Fingerprint: c.fp.Hash(),
		LeaseTTLMs:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMs: c.cfg.Heartbeat.Milliseconds(),
	}
}

// Lease grants the next available work. Normal units are granted as the
// (Delay, Transition) pair of one grid point so the worker shares their
// Monte-Carlo pass; salvage units are granted alone.
func (c *Coordinator) Lease(req LeaseRequest) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.sweepLocked(now)
	if c.remaining == 0 {
		return LeaseResponse{Done: true}
	}
	if !c.workers[req.Worker] {
		c.workers[req.Worker] = true
		workersGauge.Set(int64(len(c.workers)))
	}

	leasable := func(u *unitState) bool { return !u.terminal && u.leaseID == 0 }
	for i, u := range c.units {
		if !leasable(u) {
			continue
		}
		c.nextLease++
		l := &activeLease{id: c.nextLease, worker: req.Worker, expiry: now.Add(c.cfg.LeaseTTL), salvage: u.salvage}
		grant := []*unitState{u}
		if !u.salvage {
			// Sweep the rest of the pair in plan order (the sibling is
			// adjacent, but may already be terminal, leased or salvage).
			for j := i + 1; j < len(c.units) && c.units[j].pair == u.pair; j++ {
				if s := c.units[j]; leasable(s) && !s.salvage {
					grant = append(grant, s)
				}
			}
		}
		for _, g := range grant {
			g.leaseID = l.id
			l.keys = append(l.keys, g.ref.Key)
		}
		c.leases[l.id] = l
		leasesGranted.Inc()
		fmt.Fprintf(c.cfg.Log, "dist: lease %d -> worker %s: %d unit(s), salvage=%v\n",
			l.id, req.Worker, len(grant), u.salvage)
		return LeaseResponse{Lease: &Lease{
			ID: l.id, Keys: l.keys, Salvage: u.salvage, LastErr: u.lastErr,
			TTLMs: c.cfg.LeaseTTL.Milliseconds(),
		}}
	}
	return LeaseResponse{WaitMs: c.cfg.PollWait.Milliseconds()}
}

// Heartbeat renews a lease. OK=false tells the worker its lease is gone
// (expired, possibly re-leased) and the work in flight must be dropped.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.sweepLocked(now)
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		return HeartbeatResponse{OK: false}
	}
	l.expiry = now.Add(c.cfg.LeaseTTL)
	heartbeats.Inc()
	return HeartbeatResponse{OK: true}
}

// Complete accepts one unit result idempotently. The journal is the
// dedup authority: a unit already terminal acknowledges as a duplicate
// and writes nothing, so retried submissions (the response of the first
// try was lost) and stale submissions (the unit was re-leased and
// finished elsewhere — harmless, payloads are deterministic) can never
// journal a unit twice. Submissions under the wrong fingerprint are
// rejected with ErrSpecMismatch before touching anything, and so is an
// OK submission whose payload does not decode: journaled, it would be
// terminal for good and fail every later assembly of the library.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Fingerprint != c.fp.Hash() {
		resultsTotal.Inc("fingerprint_mismatch")
		return CompleteResponse{}, fmt.Errorf("%w: got %x, build is %x", ErrSpecMismatch, req.Fingerprint, c.fp.Hash())
	}
	k := req.Key
	u, ok := c.byKey[k]
	if !ok {
		resultsTotal.Inc("unknown_unit")
		return CompleteResponse{}, fmt.Errorf("%w: %s", errUnknownUnit, k)
	}
	if req.OK {
		if err := libbuild.CheckPayload(req.Payload); err != nil {
			resultsTotal.Inc("bad_payload")
			return CompleteResponse{}, fmt.Errorf("dist: unit %s payload: %w", k, err)
		}
	}
	now := c.cfg.Now()
	c.sweepLocked(now)
	if u.terminal {
		resultsTotal.Inc("duplicate")
		return CompleteResponse{Accepted: true, Duplicate: true, Done: c.remaining == 0}, nil
	}
	c.releaseLocked(u)

	j := c.cfg.Build.Journal
	switch {
	case req.OK && req.Rung == "":
		if err := j.Done(k, req.Payload); err != nil {
			fmt.Fprintf(c.cfg.Log, "dist: journal %s: %v\n", k, err)
		}
		resultsTotal.Inc("done")
		c.markTerminalLocked(u)
	case req.OK:
		// Salvage emission: quarantine with the note a single-process
		// build writes, so the emitted library carries identical
		// provenance either way.
		lastErr := u.lastErr
		if lastErr == "" {
			lastErr = req.Err
		}
		if err := j.Quarantined(k, req.Rung, checkpoint.QuarantineNote(lastErr), req.Payload); err != nil {
			fmt.Fprintf(c.cfg.Log, "dist: journal %s: %v\n", k, err)
		}
		resultsTotal.Inc("quarantined")
		c.markTerminalLocked(u)
	default:
		// Worker-observed unit fault: the fit is pure, so a re-run would
		// fail the same way. The unit's next lease is a salvage lease.
		resultsTotal.Inc("failed")
		if !u.salvage {
			u.salvage, u.lastErr = true, req.Err
		}
	}
	return CompleteResponse{Accepted: true, Done: c.remaining == 0}, nil
}

// releaseLocked detaches a unit from its lease (if any), dropping the
// lease once its last unit is gone.
func (c *Coordinator) releaseLocked(u *unitState) {
	if u.leaseID == 0 {
		return
	}
	l := c.leases[u.leaseID]
	u.leaseID = 0
	if l == nil {
		return
	}
	live := 0
	for _, k := range l.keys {
		if s := c.byKey[k]; s != nil && s.leaseID == l.id {
			live++
		}
	}
	if live == 0 {
		delete(c.leases, l.id)
	}
}

func (c *Coordinator) markTerminalLocked(u *unitState) {
	u.terminal = true
	c.remaining--
	unitsPending.Set(int64(c.remaining))
	if c.remaining == 0 {
		// Seal the tail so the finished build is durable before anyone
		// observes Done.
		if err := c.cfg.Build.Journal.Flush(); err != nil {
			fmt.Fprintf(c.cfg.Log, "dist: final flush: %v\n", err)
		}
		close(c.done)
	}
}

// Handler assembles the coordinator's HTTP surface: the four protocol
// endpoints (instrumented, panic-recovered), /readyz, /healthz and
// /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(route string, h http.HandlerFunc) {
		mux.Handle(route, c.metrics.Wrap(route, obs.Recover(c.metrics.Panics, h)))
	}
	api(PathJoin, func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		if !decode(w, r, &req) {
			return
		}
		writeJSON(w, c.Join(req))
	})
	api(PathLease, func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decode(w, r, &req) {
			return
		}
		writeJSON(w, c.Lease(req))
	})
	api(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		writeJSON(w, c.Heartbeat(req))
	})
	api(PathComplete, func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := c.Complete(req)
		switch {
		case errors.Is(err, ErrSpecMismatch):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			writeJSON(w, resp)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// The coordinator is ready the moment it is constructed (the journal
	// replayed); /readyz distinguishes "leasing" from "drained".
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		c.mu.Lock()
		remaining := c.remaining
		c.mu.Unlock()
		if remaining == 0 {
			fmt.Fprintln(w, "ready (build complete)")
			return
		}
		fmt.Fprintf(w, "ready (%d units pending)\n", remaining)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w)
	})
	return mux
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
