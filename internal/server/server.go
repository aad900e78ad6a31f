// Package server implements lvf2d, the long-lived timing-query daemon:
// an HTTP serving layer over the LVF² library that amortises Liberty
// parsing and statistical fitting across requests. One-shot CLI flows
// (cmd/timing, cmd/ssta) pay full characterisation cost per invocation;
// the daemon keeps parsed libraries and fitted per-arc models in an LRU
// (internal/modelcache) with singleflight coalescing, so a warm
// binning/yield query is a map lookup plus JSON encoding, and reuses the
// pooled fit.Workspace kernel so hot fits are allocation-free.
//
// Endpoint families:
//
//	GET  /v1/arc/cdf      per-arc distribution query (CDF/PDF points)
//	GET  /v1/arc/binning  speed-bin probabilities and expected revenue
//	GET  /v1/yield        per-arc 3σ-yield / yield at a clock target
//	POST /v1/yield        path-level yield over a netlist
//	POST /v1/ssta         block-based SSTA over built-in or uploaded netlists
//	POST /v1/libraries    upload a Liberty library (returns its content hash)
//	GET  /v1/libraries    list loaded libraries
//	GET  /metrics         Prometheus text exposition
//	GET  /healthz         liveness probe
//	     /debug/pprof/*   net/http/pprof (behind Config.EnablePprof)
package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lvf2/internal/liberty"
	"lvf2/internal/modelcache"
	"lvf2/internal/obs"
)

// Config tunes the daemon. The zero value serves with defaults and no
// preloaded libraries.
type Config struct {
	// Cache bounds the library/model LRUs.
	Cache modelcache.Options
	// RequestTimeout is the per-request deadline (default 30s).
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently served API requests (default 64).
	MaxInFlight int
	// MaxBodyBytes bounds uploaded bodies (default 16 MiB).
	MaxBodyBytes int64
	// FitSamples is the deterministic quantile-sample count used when a
	// query asks for a model kind that must be refitted from the arc
	// distribution (default 2048).
	FitSamples int
	// MaxUploadedLibraries bounds the uploaded-source table (default 32).
	MaxUploadedLibraries int
	// YieldMaxSamples caps the sample budget of one /v1/yield estimator
	// run (default 1<<22); the CI contract stops earlier when it closes.
	YieldMaxSamples int
	// YieldBatch is the estimator batch size between CI checks
	// (default 4096).
	YieldBatch int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Registry receives the daemon's metrics (default a fresh registry;
	// /metrics also exposes obs.Default() for library-level series).
	Registry *obs.Registry

	// SnapshotPath, when non-empty, enables model-cache persistence:
	// the LRU is restored from this file by Bootstrap and saved to it
	// atomically on a timer and on graceful drain.
	SnapshotPath string
	// SnapshotInterval is the periodic save cadence (default 30s when
	// SnapshotPath is set).
	SnapshotInterval time.Duration
	// FS is the filesystem snapshots go through (default the real OS;
	// the chaos harness injects disk faults here).
	FS modelcache.FS
	// Breaker tunes the per-(library,cell) fit circuit breaker.
	Breaker BreakerOptions
	// Replication configures consistent-hash sharded serving across a
	// replica fleet (see DESIGN.md §16–17). The zero value (no peers)
	// serves standalone.
	Replication ReplicationOptions
	// Logger receives startup/snapshot/degradation events (default
	// slog.Default()).
	Logger *slog.Logger

	// testDelay slows every API request by this amount (honouring
	// context cancellation) so tests can hold requests in flight
	// deterministically. Not reachable from the CLI.
	testDelay time.Duration
	// now overrides the breaker clock for deterministic chaos tests.
	now func() time.Time
	// fitFault, when set, is called at the head of every cache-miss fit
	// (chaos fit-fault injection).
	fitFault func(ctx context.Context) error
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.FitSamples <= 0 {
		c.FitSamples = 2048
	}
	if c.MaxUploadedLibraries <= 0 {
		c.MaxUploadedLibraries = 32
	}
	if c.YieldMaxSamples <= 0 {
		c.YieldMaxSamples = 1 << 22
	}
	if c.YieldBatch <= 0 {
		c.YieldBatch = 4096
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.FS == nil {
		c.FS = modelcache.OSFS{}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// libSource is one loadable library: its raw text plus identity. Parsing
// is deferred to the cache so an evicted library transparently re-parses
// on next use.
type libSource struct {
	name string
	hash string
	text string
}

// Server is the daemon state shared across requests.
type Server struct {
	cfg      Config
	cache    *modelcache.Cache
	metrics  *obs.HTTPMetrics
	breakers *breakerSet[breakerKey]
	repl     *replication // nil when serving standalone
	fitCost  ewma         // observed fit latency, drives early shedding
	ready    atomic.Bool  // set by Bootstrap: library parsed + restore decided

	// Resilience counters (see DESIGN.md §11).
	shedTotal           *obs.Counter
	degradedTotal       *obs.CounterVec // by rung
	snapSaves           *obs.Counter
	snapSaveFailures    *obs.Counter
	snapRestores        *obs.Counter
	snapRestoreFailures *obs.Counter

	mu     sync.Mutex
	byName map[string]*libSource
	byHash map[string]*libSource
}

// New builds a Server. Add libraries with AddLibrary/AddLibraryFile or
// at runtime via POST /v1/libraries, then call Bootstrap to restore the
// model-cache snapshot (when configured) and mark the server ready.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   modelcache.New(cfg.Cache),
		metrics: obs.NewHTTPMetrics(cfg.Registry, "lvf2d"),
		byName:  map[string]*libSource{},
		byHash:  map[string]*libSource{},
	}
	s.breakers = newBreakerSet[breakerKey](cfg.Breaker, cfg.now, cfg.Registry, "lvf2d_breaker", "fit")
	s.repl = newReplication(cfg)
	r := cfg.Registry
	s.shedTotal = obs.NewCounter(r, "lvf2d_requests_shed_total",
		"requests shed early because the remaining deadline could not cover a fit")
	s.degradedTotal = obs.NewCounterVec(r, "lvf2d_degraded_answers_total",
		"answers served from the degradation ladder, by rung", "rung")
	s.snapSaves = obs.NewCounter(r, "lvf2d_snapshot_saves_total",
		"model-cache snapshots written successfully")
	s.snapSaveFailures = obs.NewCounter(r, "lvf2d_snapshot_save_failures_total",
		"model-cache snapshot writes that failed (previous snapshot kept)")
	s.snapRestores = obs.NewCounter(r, "lvf2d_snapshot_restores_total",
		"model-cache snapshots restored on boot")
	// Exact series name pinned by the acceptance criteria.
	s.snapRestoreFailures = obs.NewCounter(r, "lvf2_snapshot_restore_failures_total",
		"snapshot restores rejected (corrupt, truncated or version-skewed); the daemon booted cold")
	s.registerCacheMetrics()
	return s
}

// Bootstrap completes startup after libraries are registered: it
// restores the model-cache snapshot when one is configured, then marks
// the server ready (/readyz flips to 200). Restore failures never fail
// the boot — a corrupt, truncated or version-skewed snapshot logs its
// reason, increments lvf2_snapshot_restore_failures_total and leaves
// the cache cold; a missing file is the normal first-boot cold start.
func (s *Server) Bootstrap() {
	defer s.ready.Store(true)
	if s.cfg.SnapshotPath == "" {
		return
	}
	n, err := s.cache.RestoreSnapshot(s.cfg.FS, s.cfg.SnapshotPath)
	switch {
	case err == nil:
		s.snapRestores.Inc()
		s.cfg.Logger.Info("lvf2d: model cache restored from snapshot",
			"path", s.cfg.SnapshotPath, "models", n)
	case errors.Is(err, fs.ErrNotExist):
		s.cfg.Logger.Info("lvf2d: no snapshot; starting cold", "path", s.cfg.SnapshotPath)
	default:
		s.snapRestoreFailures.Inc()
		s.cfg.Logger.Warn("lvf2d: snapshot rejected; starting cold",
			"path", s.cfg.SnapshotPath, "reason", err.Error())
	}
}

// SaveSnapshot persists the model cache now (timer ticks, drain, and
// chaos tests call this). Failures keep the previous snapshot on disk.
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	err := s.cache.SaveSnapshot(s.cfg.FS, s.cfg.SnapshotPath)
	if err != nil {
		s.snapSaveFailures.Inc()
		s.cfg.Logger.Warn("lvf2d: snapshot save failed", "path", s.cfg.SnapshotPath, "reason", err.Error())
		return err
	}
	s.snapSaves.Inc()
	return nil
}

// Cache exposes the model cache (used by benchmarks to force cold paths).
func (s *Server) Cache() *modelcache.Cache { return s.cache }

// AddLibrary registers Liberty source text under the given name (the
// library's own name when empty). The text is parsed once to validate
// and to learn the name; the parsed form is owned by the cache.
func (s *Server) AddLibrary(name string, text []byte) (hash string, err error) {
	g, err := liberty.Parse(string(text))
	if err != nil {
		return "", err
	}
	lib, err := liberty.LoadLibrary(g)
	if err != nil {
		return "", err
	}
	if name == "" {
		name = lib.Name
	}
	if name == "" {
		return "", fmt.Errorf("server: library has no name; supply one")
	}
	src := &libSource{name: name, hash: modelcache.HashBytes(text), text: string(text)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.byHash) >= s.cfg.MaxUploadedLibraries {
		if _, exists := s.byHash[src.hash]; !exists {
			return "", fmt.Errorf("server: library table full (%d); raise -max-libraries", s.cfg.MaxUploadedLibraries)
		}
	}
	s.byName[name] = src
	s.byHash[src.hash] = src
	return src.hash, nil
}

// AddLibraryFile loads a .lib file from disk under the given name.
func (s *Server) AddLibraryFile(name, path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return s.AddLibrary(name, b)
}

// lookupSource resolves a library reference (name or content hash).
func (s *Server) lookupSource(ref string) (*libSource, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if src, ok := s.byName[ref]; ok {
		return src, true
	}
	src, ok := s.byHash[ref]
	return src, ok
}

// library resolves a reference to a parsed library through the cache.
func (s *Server) library(ref string) (*libSource, *liberty.Library, error) {
	src, ok := s.lookupSource(ref)
	if !ok {
		return nil, nil, &httpError{code: http.StatusNotFound,
			msg: fmt.Sprintf("unknown library %q (upload via POST /v1/libraries or name one loaded at startup)", ref)}
	}
	lib, err := s.cache.Library(src.hash, int64(len(src.text)), func() (*liberty.Library, error) {
		g, err := liberty.Parse(src.text)
		if err != nil {
			return nil, err
		}
		return liberty.LoadLibrary(g)
	})
	if err != nil {
		return nil, nil, err
	}
	return src, lib, nil
}

// registerCacheMetrics exports the cache counters as scrape-time series.
func (s *Server) registerCacheMetrics() {
	r := s.cfg.Registry
	series := func(prefix string, snap func() modelcache.Stats) {
		obs.NewGaugeFunc(r, prefix+"_hits", "cache hits", func() float64 { return float64(snap().Hits) })
		obs.NewGaugeFunc(r, prefix+"_misses", "cache misses", func() float64 { return float64(snap().Misses) })
		obs.NewGaugeFunc(r, prefix+"_evictions", "cache evictions", func() float64 { return float64(snap().Evictions) })
		obs.NewGaugeFunc(r, prefix+"_coalesced", "singleflight-coalesced lookups", func() float64 { return float64(snap().Coalesced) })
		obs.NewGaugeFunc(r, prefix+"_entries", "resident entries", func() float64 { return float64(snap().Entries) })
	}
	series("lvf2d_cache_library", s.cache.LibStats)
	series("lvf2d_cache_model", s.cache.ModelStats)
	obs.NewGaugeFunc(r, "lvf2d_cache_bytes", "bytes charged to the cache budget",
		func() float64 { return float64(s.cache.Bytes()) })
}

// Handler assembles the full route table with observability middleware:
// panic recovery, per-route request/latency metrics, an in-flight
// gauge, a concurrency limiter and a per-request timeout on the API
// surface. /metrics, /healthz and /readyz bypass the limiter so probes
// stay responsive under load.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(route string, h http.HandlerFunc) {
		wrapped := http.Handler(h)
		if s.cfg.testDelay > 0 {
			inner := wrapped
			wrapped = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case <-time.After(s.cfg.testDelay):
				case <-r.Context().Done():
				}
				inner.ServeHTTP(w, r)
			})
		}
		wrapped = obs.Timeout(s.cfg.RequestTimeout, s.metrics.Timeouts, wrapped)
		wrapped = obs.Limit(s.cfg.MaxInFlight, s.metrics.Rejected, wrapped)
		wrapped = obs.Recover(s.metrics.Panics, wrapped)
		if s.repl != nil {
			// Checksum responses to forwarded requests so the sending
			// replica can detect a corrupted peer link.
			wrapped = s.peerIntegrity(wrapped)
		}
		mux.Handle(route, s.metrics.Wrap(route, wrapped))
	}
	api("/v1/arc/cdf", s.handleArcCDF)
	api("/v1/arc/binning", s.handleArcBinning)
	api("/v1/yield", s.handleYield)
	api("/v1/ssta", s.handleSSTA)
	api("/v1/libraries", s.handleLibraries)
	if s.repl != nil {
		// The peer and fleet-admin surface bypasses the limiter: a
		// restarting peer must be able to warm-seed from a replica that
		// is busy serving (snapshots carry their own checksum), and
		// reconfiguration must work on a saturated fleet.
		for _, rt := range []struct {
			route string
			h     http.HandlerFunc
		}{
			{"/v1/peer/snapshot", s.handlePeerSnapshot},
			{"/v1/peer/digest", s.handlePeerDigest},
			{"/v1/fleet/membership", s.handleFleetMembership},
			{"/v1/fleet/drain", s.handleFleetDrain},
		} {
			mux.Handle(rt.route, s.metrics.Wrap(rt.route, obs.Recover(s.metrics.Panics, rt.h)))
		}
	}

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// Readiness is distinct from liveness: the process can be alive but
	// not yet serving (libraries unparsed, snapshot restore undecided).
	// Load balancers gate traffic on /readyz and restarts on /healthz.
	// The body is JSON carrying ring membership and per-peer link state
	// when replication is configured.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !s.ready.Load():
			writeJSON(w, http.StatusServiceUnavailable, s.readyzBody("starting"))
		case s.repl != nil && s.repl.warming.Load():
			// A joining replica is alive but still pulling its newly
			// owned ranges; load balancers should hold client traffic.
			writeJSON(w, http.StatusServiceUnavailable, s.readyzBody("warming"))
		case s.repl != nil && s.repl.view().drained:
			// Still serving (everything forwards or computes locally),
			// but no longer a ring member; the status string lets
			// routing layers retire it at their own pace.
			writeJSON(w, http.StatusOK, s.readyzBody("drained"))
		default:
			writeJSON(w, http.StatusOK, s.readyzBody("ready"))
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.cfg.Registry.WritePrometheus(w)
		if s.cfg.Registry != obs.Default() {
			obs.Default().WritePrometheus(w)
		}
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Run serves on addr until ctx is cancelled, then drains in-flight
// requests gracefully for up to drain (Shutdown semantics: the listener
// closes immediately, live requests run to completion).
func (s *Server) Run(ctx context.Context, addr string, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.RunListener(ctx, ln, drain)
}

// RunListener is Run over an existing listener (tests use port 0).
// When snapshots are configured it also runs the periodic save loop and
// writes a final snapshot after the drain completes, so a SIGTERM
// restart boots warm.
func (s *Server) RunListener(ctx context.Context, ln net.Listener, drain time.Duration) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.cfg.SnapshotPath != "" {
		snapCtx, stopSnap := context.WithCancel(ctx)
		defer stopSnap()
		go func() {
			t := time.NewTicker(s.cfg.SnapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_ = s.SaveSnapshot() // failure logged + counted; previous snapshot survives
				case <-snapCtx.Done():
					return
				}
			}
		}()
	}
	if s.repl != nil {
		bgCtx, stopBg := context.WithCancel(ctx)
		defer stopBg()
		o := s.repl.opts
		// Each loop starts after a deterministic per-replica jitter so a
		// fleet restarted together never probes or digest-sweeps in
		// lockstep (see loopJitter).
		go runJittered(bgCtx, s.repl.self, probeJitterSalt, o.ProbeInterval, s.ProbePeersOnce)
		go runJittered(bgCtx, s.repl.self, antiEntropyJitterSalt, o.AntiEntropyInterval,
			func(ctx context.Context) { s.AntiEntropyOnce(ctx) })
		if o.MembershipPath != "" {
			go runJittered(bgCtx, s.repl.self, membershipJitterSalt, o.MembershipPollInterval, s.CheckMembershipFile)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	sctx := context.Background()
	if drain > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(sctx, drain)
		defer cancel()
	}
	err := hs.Shutdown(sctx)
	// The drain snapshot runs after in-flight fits have completed, so it
	// captures the fullest cache this process will ever have.
	_ = s.SaveSnapshot()
	return err
}

// ----------------------------------------------------------------- ewma

// ewma tracks an exponentially weighted moving average of observed fit
// latency (α = 0.3). The shed path compares a request's remaining
// deadline against this estimate: a request that cannot possibly cover
// a fit is answered 503 + Retry-After immediately instead of occupying
// a worker until its deadline kills it.
type ewma struct{ bits atomic.Uint64 }

func (e *ewma) observe(d time.Duration) {
	v := d.Seconds()
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := v
		if cur > 0 {
			next = 0.7*cur + 0.3*v
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (e *ewma) estimate() time.Duration {
	return time.Duration(math.Float64frombits(e.bits.Load()) * float64(time.Second))
}
