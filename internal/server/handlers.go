package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"lvf2/internal/binning"
	"lvf2/internal/core"
	"lvf2/internal/fit"
	"lvf2/internal/liberty"
	"lvf2/internal/modelcache"
	"lvf2/internal/netlist"
	"lvf2/internal/sta"
	"lvf2/internal/stats"
)

// httpError carries a status code (and optional Retry-After hint)
// through the handler error paths.
type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration // >0 sets a Retry-After header (shed/overload)
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// fail writes an error response as JSON, mapping typed httpErrors to
// their code and everything else to 500 (or 503 for a dead deadline, so
// per-request timeouts are distinguishable from server bugs). Shed
// responses carry Retry-After so clients back off instead of hammering.
func fail(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		if he.retryAfter > 0 {
			secs := int64(he.retryAfter+time.Second-1) / int64(time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
	} else if r.Context().Err() != nil {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ----------------------------------------------------------- arc queries

// arcQuery is the decoded common query surface of the /v1/arc/* and GET
// /v1/yield endpoints.
type arcQuery struct {
	libRef string
	cell   string
	outPin string // optional: default first output pin with arcs
	from   string // optional: default first arc of the pin
	base   string
	slew   float64
	load   float64
	kind   fit.Model
}

// kindNames maps query spellings to model kinds. Only kinds with a
// moments embedding are servable.
var kindNames = map[string]fit.Model{
	"lvf": fit.ModelLVF, "lvf2": fit.ModelLVF2, "norm2": fit.ModelNorm2,
	"lesn": fit.ModelLESN, "ln": fit.ModelLN, "lsn": fit.ModelLSN,
	"gaussian": fit.ModelGaussian,
}

func parseKind(s string) (fit.Model, error) {
	if s == "" {
		return fit.ModelLVF2, nil
	}
	if k, ok := kindNames[strings.ToLower(s)]; ok {
		return k, nil
	}
	return 0, badRequest("unknown kind %q (want one of lvf|lvf2|norm2|lesn|ln|lsn|gaussian)", s)
}

func parseArcQuery(r *http.Request) (arcQuery, error) {
	q := r.URL.Query()
	aq := arcQuery{
		libRef: q.Get("lib"),
		cell:   q.Get("cell"),
		outPin: q.Get("out"),
		from:   q.Get("from"),
		base:   q.Get("base"),
		slew:   0.01,
		load:   0.004,
	}
	if aq.libRef == "" {
		return aq, badRequest("missing required parameter: lib")
	}
	if aq.cell == "" {
		return aq, badRequest("missing required parameter: cell")
	}
	if aq.base == "" {
		aq.base = "cell_rise"
	}
	var err error
	if v := q.Get("slew"); v != "" {
		if aq.slew, err = parseFinite("slew", v); err != nil {
			return aq, err
		}
	}
	if v := q.Get("load"); v != "" {
		if aq.load, err = parseFinite("load", v); err != nil {
			return aq, err
		}
	}
	if aq.kind, err = parseKind(q.Get("kind")); err != nil {
		return aq, err
	}
	return aq, nil
}

// parseFinite parses one numeric query parameter. strconv accepts NaN
// and ±Inf, and NaN passes every range check after it, so both are
// refused here.
func parseFinite(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badRequest("bad %s %q", name, v)
	}
	return f, nil
}

// arcEndpoint names the endpoints that share serveArc.
type arcEndpoint int

const (
	arcCDF arcEndpoint = iota
	arcBinning
	arcYield
)

// sigmaBins is the bin count of the σ-convention boundaries every
// binning answer uses, so a prices list can be checked before anything
// runs.
var sigmaBins = len(binning.SigmaBoundaries(0, 1)) + 1

// arcRequest is an arc query with every parameter its endpoint reads.
type arcRequest struct {
	arcQuery
	points []float64   // cdf: explicit abscissae; nil = an n-point grid
	n      int         // cdf: grid size
	prices []float64   // binning: per-bin prices; nil = no revenue
	yield  yieldParams // GET /v1/yield
}

// parseArcRequest parses every parameter endpoint ep takes. It runs
// before the arc is resolved or forwarded, so a malformed query is a
// local 400 and never costs a peer round trip.
func parseArcRequest(r *http.Request, ep arcEndpoint) (arcRequest, error) {
	aq, err := parseArcQuery(r)
	if err != nil {
		return arcRequest{}, err
	}
	ar := arcRequest{arcQuery: aq, n: 21}
	q := r.URL.Query()
	switch ep {
	case arcCDF:
		if v := q.Get("points"); v != "" {
			if ar.points, err = parseFloats(v); err != nil {
				return ar, badRequest("bad points: %v", err)
			}
		} else if v := q.Get("n"); v != "" {
			if ar.n, err = strconv.Atoi(v); err != nil || ar.n < 2 || ar.n > 4096 {
				return ar, badRequest("bad n %q (want 2..4096)", v)
			}
		}
	case arcBinning:
		if v := q.Get("prices"); v != "" {
			if ar.prices, err = parseFloats(v); err != nil {
				return ar, badRequest("bad prices: %v", err)
			}
			if len(ar.prices) != sigmaBins {
				return ar, badRequest("prices wants %d values (one per bin), got %d", sigmaBins, len(ar.prices))
			}
		}
	case arcYield:
		ar.yield, err = parseYieldParams(q)
	}
	return ar, err
}

// arcAnswer is what serveArc hands an arc endpoint: the parsed request,
// the arc it resolved to and the model that serves it.
type arcAnswer struct {
	arcRequest
	ra   *resolvedArc
	m    core.Model
	used fit.Model // the kind served; differs from kind only when deg is set
	deg  *degradedDTO
}

// serveArc is the one path every arc endpoint takes to its model: parse
// every parameter → resolve the arc → forward to the ring owner or build
// the model here → tag a degraded answer. ok is false when the response
// is already written (an error, or the owner's relayed answer).
func (s *Server) serveArc(w http.ResponseWriter, r *http.Request, ep arcEndpoint) (a arcAnswer, ok bool) {
	var err error
	if a.arcRequest, err = parseArcRequest(r, ep); err == nil {
		a.ra, err = s.resolveArc(a.arcQuery)
	}
	if err != nil {
		fail(w, r, err)
		return a, false
	}
	if s.maybeForward(w, r, a.ra, a.arcQuery) {
		return a, false
	}
	if a.m, a.used, a.deg, err = s.modelFor(r, a.ra, a.arcQuery); err != nil {
		fail(w, r, err)
		return a, false
	}
	if a.deg != nil {
		w.Header().Set(degradedHeader, a.deg.Rung)
	}
	return a, true
}

// resolvedArc binds a query to one Liberty timing table.
type resolvedArc struct {
	src  *libSource
	lib  *liberty.Library
	cell *liberty.Cell
	out  *liberty.Pin
	arc  *liberty.TimingArc
	tm   *liberty.TimingModel
}

// resolveArc finds the timing model a query addresses, with helpful 404s
// naming what exists when a level of the hierarchy does not resolve.
func (s *Server) resolveArc(aq arcQuery) (*resolvedArc, error) {
	src, lib, err := s.library(aq.libRef)
	if err != nil {
		return nil, err
	}
	cell, ok := lib.Cells[aq.cell]
	if !ok {
		names := make([]string, 0, len(lib.Cells))
		for n := range lib.Cells {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, &httpError{code: http.StatusNotFound,
			msg: fmt.Sprintf("library %s has no cell %q (cells: %s)", src.name, aq.cell, strings.Join(names, ", "))}
	}
	var out *liberty.Pin
	if aq.outPin != "" {
		p, ok := cell.Pins[aq.outPin]
		if !ok || p.Direction != "output" {
			return nil, &httpError{code: http.StatusNotFound,
				msg: fmt.Sprintf("cell %s has no output pin %q", cell.Name, aq.outPin)}
		}
		out = p
	} else {
		for _, p := range cell.OutputPins() {
			if len(p.Timings) > 0 {
				out = p
				break
			}
		}
		if out == nil {
			return nil, &httpError{code: http.StatusNotFound,
				msg: fmt.Sprintf("cell %s has no output pin with timing arcs", cell.Name)}
		}
	}
	var arc *liberty.TimingArc
	if aq.from != "" {
		a, ok := out.ArcTo(aq.from)
		if !ok {
			return nil, &httpError{code: http.StatusNotFound,
				msg: fmt.Sprintf("pin %s/%s has no arc from %q", cell.Name, out.Name, aq.from)}
		}
		arc = a
	} else if len(out.Timings) > 0 {
		arc = out.Timings[0]
	} else {
		return nil, &httpError{code: http.StatusNotFound,
			msg: fmt.Sprintf("pin %s/%s has no timing arcs", cell.Name, out.Name)}
	}
	tm, ok := arc.Tables[aq.base]
	if !ok {
		bases := make([]string, 0, len(arc.Tables))
		for b := range arc.Tables {
			bases = append(bases, b)
		}
		sort.Strings(bases)
		return nil, &httpError{code: http.StatusNotFound,
			msg: fmt.Sprintf("arc %s->%s has no %s table (tables: %s)", arc.RelatedPin, out.Name, aq.base, strings.Join(bases, ", "))}
	}
	return &resolvedArc{src: src, lib: lib, cell: cell, out: out, arc: arc, tm: tm}, nil
}

// degradedDTO is the explicit quality tag of a degraded-mode answer:
// the rung of the FitRobust ladder that actually answered, the kind the
// client asked for, and why the full fit was unavailable. The same rung
// is echoed in the X-LVF2-Degraded header so proxies and load tests can
// count degraded answers without parsing bodies.
type degradedDTO struct {
	Rung      string `json:"rung"`
	Requested string `json:"requested"`
	Reason    string `json:"reason"`
}

// degradedHeader names the served rung on degraded responses.
const degradedHeader = "X-LVF2-Degraded"

// modelFor builds (or fetches) the fitted model for a resolved arc at a
// query point. LVF and LVF² come straight from table interpolation; any
// other kind is refitted from a deterministic quantile sample of the
// arc's LVF² distribution — the expensive path the cache, singleflight,
// circuit breaker and degradation ladder exist for. The returned kind
// is the model actually served (it differs from aq.kind only when deg
// is non-nil).
//
// The refit path is fenced three ways:
//
//  1. Shedding: when the request's remaining deadline cannot cover the
//     observed fit latency (EWMA), it is answered 503 + Retry-After
//     immediately instead of burning a worker until the deadline kills
//     it. Cache hits are never shed.
//  2. Circuit breaker: per-(library,cell). While open, refits are
//     skipped entirely and the degradation ladder answers.
//  3. Deadline propagation: an admitted fit is raced against the
//     request context; expiry counts as a breaker failure and degrades
//     this answer. The fit itself keeps running and installs its result
//     in the cache for the next caller — work already paid for is not
//     discarded.
func (s *Server) modelFor(r *http.Request, ra *resolvedArc, aq arcQuery) (core.Model, fit.Model, *degradedDTO, error) {
	key := cacheKeyFor(ra, aq)
	if aq.kind == fit.ModelLVF || aq.kind == fit.ModelLVF2 {
		// Table interpolation: cheap, deterministic, no fitting — the
		// breaker and ladder never apply.
		m, err := s.cache.Model(key, func() (core.Model, error) {
			return s.tableModel(ra, aq)
		})
		return m, aq.kind, nil, err
	}
	return s.refitModel(r, ra, aq, key)
}

// cacheKeyFor is the full arc coordinate of a resolved query — the
// model-cache key and, via ModelKey.RingKey, the consistent-hash
// sharding key of the replicated serving layer.
func cacheKeyFor(ra *resolvedArc, aq arcQuery) modelcache.ModelKey {
	return modelcache.ModelKey{
		LibHash:    ra.src.hash,
		Cell:       ra.cell.Name,
		OutputPin:  ra.out.Name,
		RelatedPin: ra.arc.RelatedPin,
		Base:       aq.base,
		Slew:       aq.slew,
		Load:       aq.load,
		Kind:       aq.kind,
	}
}

// tableModel is the fit-free path: LVF/LVF² straight from the Liberty
// tables.
func (s *Server) tableModel(ra *resolvedArc, aq arcQuery) (core.Model, error) {
	if aq.kind == fit.ModelLVF {
		th, err := ra.tm.LVFAtPoint(aq.slew, aq.load)
		if err != nil {
			return core.Model{}, err
		}
		m := core.FromLVF(th)
		return m, m.Validate()
	}
	return ra.tm.ModelAtPoint(aq.slew, aq.load)
}

// refitModel serves a kind that needs an actual fit, applying the shed
// check, the circuit breaker and deadline propagation described on
// modelFor.
func (s *Server) refitModel(r *http.Request, ra *resolvedArc, aq arcQuery, key modelcache.ModelKey) (core.Model, fit.Model, *degradedDTO, error) {
	ctx := r.Context()
	bk := breakerKey{libHash: ra.src.hash, cell: ra.cell.Name}
	_, cached := s.cache.Peek(key)

	if !cached {
		// Early shed: compare the remaining budget against the observed
		// fit latency. Deadlines come from the real clock (obs.Timeout),
		// so this check does too.
		if dl, ok := ctx.Deadline(); ok {
			remaining := time.Until(dl)
			if est := s.fitCost.estimate(); remaining <= 0 || (est > 0 && remaining < est) {
				s.shedTotal.Inc()
				retry := max(est, time.Second)
				return core.Model{}, 0, nil, &httpError{
					code:       http.StatusServiceUnavailable,
					msg:        fmt.Sprintf("remaining deadline %v cannot cover a fit (observed ~%v); retry with more budget", remaining, est),
					retryAfter: retry,
				}
			}
		}
		ok, probe := s.breakers.allow(bk)
		if !ok {
			return s.degradedModel(ra, aq, "fit circuit breaker open")
		}
		return s.fitWithDeadline(ctx, ra, aq, key, bk, probe)
	}

	// Cached: serve it through the normal counting path (instant hit).
	m, err := s.cache.Model(key, func() (core.Model, error) {
		return core.Model{}, fmt.Errorf("cache entry for %v vanished", key.Kind)
	})
	if err != nil {
		return s.degradedModel(ra, aq, "cached model evicted mid-request")
	}
	return m, aq.kind, nil, nil
}

// fitWithDeadline runs the cache-miss fit, racing it against the
// request context and reporting the outcome to the breaker.
func (s *Server) fitWithDeadline(ctx context.Context, ra *resolvedArc, aq arcQuery, key modelcache.ModelKey, bk breakerKey, probe bool) (core.Model, fit.Model, *degradedDTO, error) {
	fitFn := func() (m core.Model, err error) {
		// This runs on its own goroutine, out of obs.Recover's reach: a
		// panic becomes a fit error for the breaker and the ladder.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("fit panicked: %v", p)
			}
		}()
		if s.cfg.fitFault != nil {
			if err := s.cfg.fitFault(ctx); err != nil {
				return core.Model{}, err
			}
		}
		start := time.Now()
		base, err := ra.tm.ModelAtPoint(aq.slew, aq.load)
		if err != nil {
			return core.Model{}, err
		}
		xs := quantileSamples(base.Dist(), s.cfg.FitSamples)
		m, _, err = core.FitKindRobust(aq.kind, xs, fit.RobustOptions{})
		if err == nil {
			s.fitCost.observe(time.Since(start))
		}
		return m, err
	}
	type out struct {
		m   core.Model
		err error
	}
	ch := make(chan out, 1)
	go func() {
		m, err := s.cache.Model(key, fitFn)
		ch <- out{m, err}
	}()
	select {
	case o := <-ch:
		s.breakers.done(bk, probe, o.err)
		if o.err != nil {
			return s.degradedModel(ra, aq, fmt.Sprintf("fit failed: %v", o.err))
		}
		return o.m, aq.kind, nil, nil
	case <-ctx.Done():
		// The fit goroutine keeps running and will populate the cache;
		// this request degrades now rather than blocking past its budget.
		s.breakers.done(bk, probe, context.DeadlineExceeded)
		return s.degradedModel(ra, aq, "fit exceeded the request deadline")
	}
}

// degradedModel walks the serving half of the FitRobust ladder
// (Norm² → LVF → Gaussian) and tags the answer with the rung used.
// While the fit path is suspect no new fit is started: the Norm² rung
// is served only if an earlier request already fitted it (cache peek),
// LVF comes from table interpolation (fit-free, the paper's λ=0
// backward-compatibility collapse), and the terminal Gaussian drops the
// skew from the LVF moments. Only when even the table lookup fails does
// the client see an error.
func (s *Server) degradedModel(ra *resolvedArc, aq arcQuery, reason string) (core.Model, fit.Model, *degradedDTO, error) {
	deg := func(rung fit.Model) *degradedDTO {
		s.degradedTotal.Inc(rung.String())
		return &degradedDTO{Rung: rung.String(), Requested: aq.kind.String(), Reason: reason}
	}
	if aq.kind != fit.ModelNorm2 {
		k := cacheKeyFor(ra, aq)
		k.Kind = fit.ModelNorm2
		if m, ok := s.cache.Peek(k); ok {
			return m, fit.ModelNorm2, deg(fit.ModelNorm2), nil
		}
	}
	th, err := ra.tm.LVFAtPoint(aq.slew, aq.load)
	if err != nil {
		// No usable table data at all: a clean error, not a panic.
		return core.Model{}, 0, nil, fmt.Errorf("degraded (%s) and no LVF table fallback: %w", reason, err)
	}
	if m := core.FromLVF(th); m.Validate() == nil && m.Theta1.Sigma > 0 {
		return m, fit.ModelLVF, deg(fit.ModelLVF), nil
	}
	// Terminal rung: moment-matched Gaussian with a floored sigma.
	sigma := math.Abs(th.Sigma)
	if floor := math.Max(math.Abs(th.Mean)*1e-9, 1e-12); sigma < floor {
		sigma = floor
	}
	g := core.FromLVF(core.Theta{Mean: th.Mean, Sigma: sigma})
	return g, fit.ModelGaussian, deg(fit.ModelGaussian), nil
}

// quantileSamples draws n deterministic samples from d via the midpoint
// quantile grid x_i = Q((i+½)/n) — reproducible by construction, which
// is what makes cached and fresh fits bit-identical.
func quantileSamples(d stats.Dist, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = stats.Quantile(d, (float64(i)+0.5)/float64(n))
	}
	return xs
}

// -------------------------------------------------------------- DTO types

type thetaDTO struct {
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
	Skew  float64 `json:"skew"`
}

type modelDTO struct {
	Kind   string    `json:"kind"`
	Lambda float64   `json:"lambda"`
	Theta1 thetaDTO  `json:"theta1"`
	Theta2 *thetaDTO `json:"theta2,omitempty"`
}

func dtoFromModel(kind fit.Model, m core.Model) modelDTO {
	out := modelDTO{
		Kind:   kind.String(),
		Lambda: m.Lambda,
		Theta1: thetaDTO{Mean: m.Theta1.Mean, Sigma: m.Theta1.Sigma, Skew: m.Theta1.Skew},
	}
	if !m.IsLVF() {
		out.Theta2 = &thetaDTO{Mean: m.Theta2.Mean, Sigma: m.Theta2.Sigma, Skew: m.Theta2.Skew}
	}
	return out
}

type arcDTO struct {
	Library    string  `json:"library"`
	LibHash    string  `json:"lib_hash"`
	Cell       string  `json:"cell"`
	OutputPin  string  `json:"output_pin"`
	RelatedPin string  `json:"related_pin"`
	Base       string  `json:"base"`
	Slew       float64 `json:"slew"`
	Load       float64 `json:"load"`
}

func dtoFromArc(ra *resolvedArc, aq arcQuery) arcDTO {
	return arcDTO{
		Library: ra.src.name, LibHash: ra.src.hash,
		Cell: ra.cell.Name, OutputPin: ra.out.Name, RelatedPin: ra.arc.RelatedPin,
		Base: aq.base, Slew: aq.slew, Load: aq.load,
	}
}

// ------------------------------------------------------------ /v1/arc/cdf

type cdfPoint struct {
	X   float64 `json:"x"`
	CDF float64 `json:"cdf"`
	PDF float64 `json:"pdf"`
}

type cdfResponse struct {
	Arc      arcDTO       `json:"arc"`
	Model    modelDTO     `json:"model"`
	Degraded *degradedDTO `json:"degraded,omitempty"`
	Mean     float64      `json:"mean"`
	Std      float64      `json:"std"`
	Points   []cdfPoint   `json:"points"`
}

func (s *Server) handleArcCDF(w http.ResponseWriter, r *http.Request) {
	a, ok := s.serveArc(w, r, arcCDF)
	if !ok {
		return
	}
	d := a.m.Dist()
	mean, std := d.Mean(), stats.Std(d)
	xs := a.points
	if xs == nil {
		// Evenly spaced over mean ± 4σ: covers the binning range with
		// margin.
		xs = make([]float64, a.n)
		for i := range xs {
			xs[i] = mean - 4*std + 8*std*float64(i)/float64(a.n-1)
		}
	}
	resp := cdfResponse{
		Arc: dtoFromArc(a.ra, a.arcQuery), Model: dtoFromModel(a.used, a.m), Degraded: a.deg,
		Mean: mean, Std: std,
		Points: make([]cdfPoint, len(xs)),
	}
	for i, x := range xs {
		resp.Points[i] = cdfPoint{X: x, CDF: d.CDF(x), PDF: d.PDF(x)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// -------------------------------------------------------- /v1/arc/binning

type binningResponse struct {
	Arc             arcDTO       `json:"arc"`
	Model           modelDTO     `json:"model"`
	Degraded        *degradedDTO `json:"degraded,omitempty"`
	Mean            float64      `json:"mean"`
	Std             float64      `json:"std"`
	Boundaries      []float64    `json:"boundaries"`
	Probabilities   []float64    `json:"probabilities"`
	Yield3Sigma     float64      `json:"yield_3sigma"`
	ExpectedRevenue *float64     `json:"expected_revenue,omitempty"`
}

func (s *Server) handleArcBinning(w http.ResponseWriter, r *http.Request) {
	a, ok := s.serveArc(w, r, arcBinning)
	if !ok {
		return
	}
	d := a.m.Dist()
	mean, std := d.Mean(), stats.Std(d)
	bounds := binning.SigmaBoundaries(mean, std)
	probs := binning.DistProbabilities(d, bounds)
	resp := binningResponse{
		Arc: dtoFromArc(a.ra, a.arcQuery), Model: dtoFromModel(a.used, a.m), Degraded: a.deg,
		Mean: mean, Std: std,
		Boundaries:    bounds,
		Probabilities: probs,
		Yield3Sigma:   binning.Yield3Sigma(d.CDF, mean, std),
	}
	if a.prices != nil {
		rev := binning.ExpectedRevenue(probs, a.prices)
		resp.ExpectedRevenue = &rev
	}
	writeJSON(w, http.StatusOK, resp)
}

// --------------------------------------------------------------- /v1/yield

type yieldResponse struct {
	Arc      *arcDTO      `json:"arc,omitempty"`
	Model    *modelDTO    `json:"model,omitempty"`
	Degraded *degradedDTO `json:"degraded,omitempty"`
	Clock    float64      `json:"clock"`
	// Yield is the analytic fitted-model answer (per model family); when
	// an estimator is requested Estimate/Estimates carry the sampled
	// rare-event answer with its confidence interval alongside it.
	Yield     map[string]float64           `json:"yield"`
	Estimate  *yieldEstimateDTO            `json:"estimate,omitempty"`
	Estimates map[string]*yieldEstimateDTO `json:"estimates,omitempty"`
}

// handleYield answers GET for per-arc yield at a clock target (default
// μ+3σ of the model — the paper's 3σ-yield) and POST for path-level
// yield over a netlist (product of per-output CDFs at the clock). With
// estimator=mc|mnis|ais the response additionally carries a sampled
// rare-event estimate run under the CI contract (relative half-width
// target from ci=, server-capped sample budget, request deadline).
func (s *Server) handleYield(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.handleNetlistYield(w, r)
		return
	}
	a, ok := s.serveArc(w, r, arcYield)
	if !ok {
		return
	}
	d, yp := a.m.Dist(), a.yield
	sigma := defaultYieldSigma
	if yp.hasSigma {
		sigma = yp.sigma
	}
	clock := d.Mean() + sigma*stats.Std(d)
	if yp.hasClock {
		clock = yp.clock
	}
	arc, model := dtoFromArc(a.ra, a.arcQuery), dtoFromModel(a.used, a.m)
	resp := yieldResponse{Arc: &arc, Model: &model, Degraded: a.deg, Clock: clock,
		Yield: map[string]float64{a.used.String(): d.CDF(clock)}}
	if yp.estimator != "" {
		resp.Estimate = s.estimateArcYield(r.Context(), a.ra, a.arcQuery, d, clock, yp)
		if a.deg == nil && resp.Estimate.Degraded != nil {
			w.Header().Set(degradedHeader, resp.Estimate.Degraded.Rung)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleNetlistYield(w http.ResponseWriter, r *http.Request) {
	var yp yieldParams
	run, err := s.runNetlist(r, func(req netlistRequest) error {
		yp = yieldParams{
			sigma: req.Sigma, hasSigma: req.Sigma != 0,
			clock: req.Clock, hasClock: req.Clock > 0,
			estimator: req.Estimator, ci: req.CI,
		}
		if err := yp.validate(); err != nil {
			return err
		}
		if !yp.hasClock && !yp.hasSigma {
			return badRequest("netlist yield needs a positive clock (or sigma)")
		}
		return nil
	})
	if err != nil {
		fail(w, r, err)
		return
	}
	res, mod, fams := run.res, run.mod, run.fams
	clock := yp.clock
	if !yp.hasClock {
		// sigma target: clock = critical-output μ+sσ under the first
		// requested family, shared by every family so the answers compare.
		if clock, err = criticalClock(res, mod, fams[0], yp.sigma); err != nil {
			fail(w, r, err)
			return
		}
	}
	resp := yieldResponse{Clock: clock}
	if resp.Yield, err = run.yieldAtClock(clock); err != nil {
		fail(w, r, err)
		return
	}
	if yp.estimator != "" {
		resp.Estimates = make(map[string]*yieldEstimateDTO, len(fams))
		for _, fam := range fams {
			est, err := s.estimateNetlistYield(r.Context(), res, mod, fam, clock, yp)
			if err != nil {
				fail(w, r, err)
				return
			}
			resp.Estimates[fam.String()] = est
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// criticalClock is the μ+sσ clock of the latest-arriving primary output
// under one model family — the sigma-target clock of POST /v1/yield.
func criticalClock(res *sta.Result, mod *netlist.Module, fam fit.Model, sigma float64) (float64, error) {
	clock, found := 0.0, false
	for _, out := range mod.Outputs() {
		a, ok := res.Arrivals[out]
		if !ok {
			continue
		}
		v, ok := a.Vars[fam]
		if !ok || v == nil {
			return 0, badRequest("output %q has no %v arrival", out, fam)
		}
		d := v.Dist()
		if t := d.Mean() + sigma*stats.Std(d); !found || t > clock {
			clock, found = t, true
		}
	}
	if !found {
		return 0, badRequest("no primary output arrivals")
	}
	return clock, nil
}

// ---------------------------------------------------------------- /v1/ssta

// netlistRequest is the shared body of POST /v1/ssta and POST /v1/yield.
type netlistRequest struct {
	Lib     string `json:"lib"`
	Netlist string `json:"netlist,omitempty"` // structural Verilog source
	Builtin string `json:"builtin,omitempty"` // chain | rca16 | buftree
	N       int    `json:"n,omitempty"`       // chain stages / tree depth
	Cell    string `json:"cell,omitempty"`    // chain cell type

	Slew     float64  `json:"slew,omitempty"`
	Families []string `json:"families,omitempty"`
	Clock    float64  `json:"clock,omitempty"`
	AllNets  bool     `json:"all_nets,omitempty"`

	// Rare-event estimator selection (POST /v1/yield only). Sigma sets
	// the clock at the critical output's μ+sσ when Clock is absent;
	// Estimator picks the ladder rung (mc|mnis|ais); CI overrides the
	// ±1% relative half-width contract.
	Sigma     float64 `json:"sigma,omitempty"`
	Estimator string  `json:"estimator,omitempty"`
	CI        float64 `json:"ci,omitempty"`
}

func (s *Server) decodeNetlistRequest(r *http.Request) (netlistRequest, *netlist.Module, *liberty.Library, error) {
	var req netlistRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		return req, nil, nil, err
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		return req, nil, nil, &httpError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes)}
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, nil, badRequest("bad JSON body: %v", err)
	}
	if req.Lib == "" {
		return req, nil, nil, badRequest("missing required field: lib")
	}
	if req.Slew <= 0 {
		req.Slew = 0.01
	}
	_, lib, err := s.library(req.Lib)
	if err != nil {
		return req, nil, nil, err
	}
	var mod *netlist.Module
	switch {
	case req.Netlist != "":
		if mod, err = netlist.Parse(req.Netlist); err != nil {
			return req, nil, nil, badRequest("netlist: %v", err)
		}
	case req.Builtin == "chain":
		n, cell := req.N, req.Cell
		if n <= 0 {
			n = 8
		}
		if cell == "" {
			cell = "INV"
		}
		mod = netlist.Chain("chain", cell, n)
	case req.Builtin == "rca16":
		mod = netlist.RippleCarryAdder(16)
	case req.Builtin == "buftree":
		n := req.N
		if n <= 0 {
			n = 4
		}
		mod = netlist.BufferTree(n)
	default:
		return req, nil, nil, badRequest("provide netlist source or builtin (chain|rca16|buftree)")
	}
	return req, mod, lib, nil
}

// netlistRun is a decoded netlist request and its SSTA result.
type netlistRun struct {
	req  netlistRequest
	mod  *netlist.Module
	fams []fit.Model
	res  *sta.Result
}

// runNetlist is the shared head of POST /v1/ssta and POST /v1/yield:
// decode the body, apply the endpoint's own check (nil for none) before
// any work, pick the model families and run block-based SSTA.
func (s *Server) runNetlist(r *http.Request, check func(netlistRequest) error) (*netlistRun, error) {
	req, mod, lib, err := s.decodeNetlistRequest(r)
	if err == nil && check != nil {
		err = check(req)
	}
	if err != nil {
		return nil, err
	}
	run := &netlistRun{req: req, mod: mod}
	if run.fams, err = parseFamilies(req.Families); err != nil {
		return nil, err
	}
	if run.res, err = sta.Run(lib, mod, sta.Options{InputSlew: req.Slew, Families: run.fams}); err != nil {
		return nil, err
	}
	return run, nil
}

// yieldAtClock is the analytic chip yield of every requested family at
// one clock, keyed by family name.
func (n *netlistRun) yieldAtClock(clock float64) (map[string]float64, error) {
	ys := make(map[string]float64, len(n.fams))
	for _, fam := range n.fams {
		y, err := n.res.YieldAtClock(n.mod, fam, clock)
		if err != nil {
			return nil, err
		}
		ys[fam.String()] = y
	}
	return ys, nil
}

func parseFamilies(names []string) ([]fit.Model, error) {
	if len(names) == 0 {
		return []fit.Model{fit.ModelLVF, fit.ModelLVF2}, nil
	}
	fams := make([]fit.Model, 0, len(names))
	for _, n := range names {
		k, err := parseKind(n)
		if err != nil {
			return nil, err
		}
		if k != fit.ModelLVF && k != fit.ModelLVF2 {
			return nil, badRequest("family %q is not representable from Liberty data (want lvf|lvf2)", n)
		}
		fams = append(fams, k)
	}
	return fams, nil
}

type distSummary struct {
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
	Q9987 float64 `json:"q99_87"` // μ+3σ-equivalent yield point
}

type netArrivalDTO struct {
	Nominal  float64                `json:"nominal"`
	Slew     float64                `json:"slew"`
	Families map[string]distSummary `json:"families"`
}

type pathStepDTO struct {
	Net      string  `json:"net"`
	Instance string  `json:"instance,omitempty"`
	Arrival  float64 `json:"arrival"`
}

type sstaResponse struct {
	Module         string                   `json:"module"`
	Instances      int                      `json:"instances"`
	CriticalOutput string                   `json:"critical_output"`
	Arrivals       map[string]netArrivalDTO `json:"arrivals"`
	CriticalPath   []pathStepDTO            `json:"critical_path"`
	Yield          map[string]float64       `json:"yield,omitempty"`
}

func (s *Server) handleSSTA(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		fail(w, r, &httpError{code: http.StatusMethodNotAllowed, msg: "POST a netlist request"})
		return
	}
	run, err := s.runNetlist(r, nil)
	if err != nil {
		fail(w, r, err)
		return
	}
	req, mod, res := run.req, run.mod, run.res
	nets := mod.Outputs()
	if req.AllNets {
		nets = mod.Nets()
	}
	resp := sstaResponse{
		Module: mod.Name, Instances: len(mod.Instances),
		CriticalOutput: res.CriticalOutput,
		Arrivals:       make(map[string]netArrivalDTO, len(nets)),
	}
	for _, net := range nets {
		a, ok := res.Arrivals[net]
		if !ok {
			continue
		}
		dto := netArrivalDTO{Nominal: a.Nominal, Slew: a.Slew,
			Families: make(map[string]distSummary, len(a.Vars))}
		for fam, v := range a.Vars {
			if v == nil {
				continue
			}
			d := v.Dist()
			dto.Families[fam.String()] = distSummary{
				Mean:  d.Mean(),
				Std:   math.Sqrt(d.Variance()),
				Q9987: stats.Quantile(d, 0.9987),
			}
		}
		resp.Arrivals[net] = dto
	}
	for _, step := range res.CriticalPath(res.CriticalOutput) {
		resp.CriticalPath = append(resp.CriticalPath, pathStepDTO{
			Net: step.Net, Instance: step.Instance, Arrival: step.Arrival,
		})
	}
	if req.Clock > 0 {
		if resp.Yield, err = run.yieldAtClock(req.Clock); err != nil {
			fail(w, r, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ----------------------------------------------------------- /v1/libraries

type libraryInfo struct {
	Name  string `json:"name"`
	Hash  string `json:"hash"`
	Bytes int    `json:"bytes"`
	Cells int    `json:"cells,omitempty"`
}

func (s *Server) handleLibraries(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		infos := make([]libraryInfo, 0, len(s.byHash))
		for _, src := range s.byHash {
			infos = append(infos, libraryInfo{Name: src.name, Hash: src.hash, Bytes: len(src.text)})
		}
		s.mu.Unlock()
		sort.Slice(infos, func(a, b int) bool { return infos[a].Name < infos[b].Name })
		writeJSON(w, http.StatusOK, map[string]any{"libraries": infos})
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
		if err != nil {
			fail(w, r, err)
			return
		}
		if int64(len(body)) > s.cfg.MaxBodyBytes {
			fail(w, r, &httpError{code: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("library exceeds %d bytes", s.cfg.MaxBodyBytes)})
			return
		}
		name := r.URL.Query().Get("name")
		hash, err := s.AddLibrary(name, body)
		if err != nil {
			fail(w, r, badRequest("%v", err))
			return
		}
		src, _ := s.lookupSource(hash)
		_, lib, err := s.library(hash)
		if err != nil {
			fail(w, r, err)
			return
		}
		writeJSON(w, http.StatusOK, libraryInfo{
			Name: src.name, Hash: hash, Bytes: len(body), Cells: len(lib.Cells),
		})
	default:
		fail(w, r, &httpError{code: http.StatusMethodNotAllowed, msg: "GET or POST"})
	}
}

// parseFloats parses a comma-separated list of finite floats.
func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
