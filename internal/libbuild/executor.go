package libbuild

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/fit"
)

// UnitRef locates one work unit in the deterministic build plan: its
// checkpoint key plus the arc it characterises.
type UnitRef struct {
	Key checkpoint.Key
	Arc cells.Arc
}

// Plan enumerates every work unit of cfg in deterministic build order:
// arcs in library order, grid points in sweep order, Delay before
// Transition at each point. Build runs one arc's span of it per pool
// task and the distributed coordinator leases from it, so every process
// — coordinator, worker, single-machine build — agrees on the unit
// universe and its order.
func Plan(cfg Config) ([]UnitRef, error) {
	if len(cfg.Types) == 0 {
		return nil, errNoTypes
	}
	cfg.Char = cfg.Char.WithDefaults()
	jobs, _ := planJobs(cfg)
	points := cfg.Char.SweepPoints()
	refs := make([]UnitRef, 0, len(jobs)*len(points)*2)
	for _, j := range jobs {
		for _, p := range points {
			for _, kind := range [...]cells.Kind{cells.Delay, cells.Transition} {
				refs = append(refs, UnitRef{Key: j.key(p.SlewIdx, p.LoadIdx, kind), Arc: j.arc})
			}
		}
	}
	return refs, nil
}

// Executor is the one code path that characterises, seeds, fits and
// salvages a work unit. Build drives it arc by arc through
// checkpoint.Journal.Do; a distributed worker drives it one leased unit
// at a time through Execute and Salvage. A payload is a pure function of the
// configuration, the unit's deterministic samples and its seed, and the
// seed is the link the unit's chain neighbour left (see seed and
// record), so a payload computed remotely is bit-identical to one
// computed locally.
type Executor struct {
	cfg  Config
	jobs map[checkpoint.Key]arcJob // by arcOf
	warm bool                      // LVF² fits are seeded from the chain

	mu      sync.Mutex
	samples map[checkpoint.Key]cells.Distribution // a worker's last few points
	// links holds the chain links of resolved units. Build keeps all of
	// them, as it reads each one back while its arc is in flight; Execute
	// bounds a worker's (see workerLinks).
	links map[checkpoint.Key]*fit.Seed
}

const (
	// executorCachePoints bounds a worker's characterised-point cache:
	// leases arrive point by point, so it only needs the last few.
	executorCachePoints = 4
	// workerLinks bounds a worker's link store: Execute clears it once it
	// holds this many. Leases arrive in plan order, so a worker only
	// revisits the last few rows; the bound keeps a long-lived worker from
	// keeping every link it has ever fitted.
	workerLinks = 512
)

var errNoTypes = errors.New("libbuild: no cell types")

// NewExecutor builds the executor for one build configuration. A
// worker's configuration must match the coordinator's bit for bit (same
// fingerprint) or the fitted payloads would diverge.
func NewExecutor(cfg Config) (*Executor, error) {
	if len(cfg.Types) == 0 {
		return nil, errNoTypes
	}
	cfg.Char = cfg.Char.WithDefaults()
	jobs, _ := planJobs(cfg)
	e := &Executor{cfg: cfg, jobs: make(map[checkpoint.Key]arcJob, len(jobs)),
		warm:    requestedModel(cfg) == fit.ModelLVF2 && !cfg.ColdStart,
		samples: make(map[checkpoint.Key]cells.Distribution),
		links:   make(map[checkpoint.Key]*fit.Seed)}
	for _, j := range jobs {
		e.jobs[arcOf(j.key(0, 0, cells.Delay))] = j
	}
	return e, nil
}

// arcOf keeps the key fields that name a unit's arc.
func arcOf(k checkpoint.Key) checkpoint.Key {
	return checkpoint.Key{Cell: k.Cell, Pin: k.Pin, Arc: k.Arc}
}

// characterise runs the Monte-Carlo pass of job's arc over the grid
// points that hold a unit want accepts — one pass, sharing one sample
// plan across the arc — and returns the samples by unit key.
func (e *Executor) characterise(ctx context.Context, job arcJob, want func(checkpoint.Key) bool) (map[checkpoint.Key]cells.Distribution, error) {
	charCfg := e.cfg.Char
	charCfg.Skip = func(_ cells.Arc, si, li int) bool {
		return !want(job.key(si, li, cells.Delay)) && !want(job.key(si, li, cells.Transition))
	}
	dists, err := cells.CharacterizeArcCtx(ctx, charCfg, job.arc)
	if err != nil {
		return nil, err
	}
	out := make(map[checkpoint.Key]cells.Distribution, len(dists))
	for _, d := range dists {
		out[job.key(d.SlewIdx, d.LoadIdx, d.Kind)] = d
	}
	return out, nil
}

// unit returns the samples of one unit, characterising its grid point on
// a cache miss. A leased pair's second unit reuses the first's pass.
func (e *Executor) unit(ctx context.Context, k checkpoint.Key) (cells.Distribution, error) {
	e.mu.Lock()
	d, ok := e.samples[k]
	e.mu.Unlock()
	if ok {
		return d, nil
	}
	var pt map[checkpoint.Key]cells.Distribution
	if job, ok := e.jobs[arcOf(k)]; ok {
		var err error
		if pt, err = e.characterise(ctx, job, func(u checkpoint.Key) bool { return u.Slew == k.Slew && u.Load == k.Load }); err != nil {
			return d, err
		}
	}
	if d, ok = pt[k]; !ok {
		return d, fmt.Errorf("libbuild: executor: unit %s is not in the build plan", k)
	}
	e.mu.Lock()
	if len(e.samples) >= 2*executorCachePoints {
		clear(e.samples)
	}
	maps.Copy(e.samples, pt)
	e.mu.Unlock()
	return d, nil
}

// seed is unit k's warm-start seed: the link its chain neighbour left,
// which is the previous row's anchor for a column-0 unit and the nearest
// left neighbour otherwise. The arc's first anchor has none, nor does
// any unit of a non-LVF² or ColdStart build. Build records every link
// before the successor asks, so it never refits. A worker that finds no
// link refits the neighbour, which another process fitted, from its
// deterministic samples, recursing along the chain as far as it must.
func (e *Executor) seed(ctx context.Context, k checkpoint.Key) (*fit.Seed, error) {
	if !e.warm {
		return nil, nil
	}
	n := k
	if k.Load == 0 {
		n.Slew -= e.cfg.Char.GridStride
	} else {
		n.Load -= e.cfg.Char.GridStride
	}
	if n.Slew < 0 {
		return nil, nil
	}
	e.mu.Lock()
	link, ok := e.links[n]
	e.mu.Unlock()
	if ok {
		return link, nil
	}
	d, err := e.unit(ctx, n)
	if err != nil {
		return nil, err
	}
	prior, err := e.seed(ctx, n)
	if err != nil {
		return nil, err
	}
	payload, _ := fitUnitPayload(fit.ModelLVF2, e.cfg.Char.GridStride, n, d, prior) // a failed fit leaves a dirty link
	return e.record(n, payload, false, prior), nil
}

// record stores and returns the link unit k leaves once resolved to
// payload (quarantined: a salvage emission), given the seed it was
// seeded from. A clean fit leaves its own model, decoded from the
// payload so every process derives the same bits. A dirty mid-row unit
// (quarantined, undecodable or fallback-noted) passes seed through, so
// the previous clean neighbour keeps seeding. A dirty anchor leaves nil,
// which cold-starts its own row and the next row's anchor.
func (e *Executor) record(k checkpoint.Key, payload []byte, quarantined bool, seed *fit.Seed) *fit.Seed {
	if !e.warm {
		return nil
	}
	link := seed
	if k.Load == 0 {
		link = nil
	}
	if _, m, note, _, err := decodeUnit(payload); err == nil && !quarantined && note == "" {
		link = seedFromModel(m)
	}
	e.mu.Lock()
	e.links[k] = link
	e.mu.Unlock()
	return link
}

// fitUnit fits unit k from its samples d, warm-started from seed, and
// encodes the journal payload. Config's test seams see every call.
func (e *Executor) fitUnit(k checkpoint.Key, d cells.Distribution, seed *fit.Seed) ([]byte, error) {
	if e.cfg.fitHook != nil {
		e.cfg.fitHook(k)
	}
	if e.cfg.fitErr != nil {
		if err := e.cfg.fitErr(k); err != nil {
			return nil, err
		}
	}
	return fitUnitPayload(requestedModel(e.cfg), e.cfg.Char.GridStride, k, d, seed)
}

// Execute characterises and fits one work unit, returning the payload
// the journal would hold for a Done record. The fit's link is recorded,
// so the worker's next unit of the chain need not refit it.
func (e *Executor) Execute(ctx context.Context, k checkpoint.Key) ([]byte, error) {
	d, err := e.unit(ctx, k)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if len(e.links) >= workerLinks {
		clear(e.links)
	}
	e.mu.Unlock()
	seed, err := e.seed(ctx, k)
	if err != nil {
		return nil, err
	}
	payload, err := e.fitUnit(k, d, seed)
	if err != nil {
		return nil, err
	}
	e.record(k, payload, false, seed)
	return payload, nil
}

// Salvage runs the quarantine ladder for a poison unit, returning the
// degraded payload and the rung that produced it. The floored-Gaussian
// terminal rung cannot fail, so Salvage only errors on cancellation or
// a unit outside the plan.
func (e *Executor) Salvage(ctx context.Context, k checkpoint.Key) (payload []byte, rung string, err error) {
	d, err := e.unit(ctx, k)
	if err != nil {
		return nil, "", err
	}
	payload, rung = salvageUnitPayload(d)
	return payload, rung, nil
}

// runArc resolves one arc's units (refs, in plan order) through j.Do
// into out. The arc's Monte-Carlo pass runs first, in one pass over the
// points that still hold an unjournaled unit, and outside j.Do: an
// evaluator panic fails the arc's pool task rather than quarantining its
// units. Each resolved unit — restored, fitted or salvaged — records its
// link before its successor asks for a seed.
func (e *Executor) runArc(ctx context.Context, j *checkpoint.Journal, refs []UnitRef, out []checkpoint.Unit) error {
	samples, err := e.characterise(ctx, e.jobs[arcOf(refs[0].Key)], func(k checkpoint.Key) bool {
		return !j.Terminal(k)
	})
	if err != nil {
		return err
	}
	for i, ref := range refs {
		k, d := ref.Key, samples[ref.Key]
		seed, err := e.seed(ctx, k)
		if err != nil {
			return err
		}
		u, err := j.Do(ctx, k,
			func(context.Context) ([]byte, error) { return e.fitUnit(k, d, seed) },
			func(error) ([]byte, string) { return salvageUnitPayload(d) })
		if err != nil {
			return err
		}
		e.record(k, u.Payload, u.Quarantined, seed)
		out[i] = u
	}
	return nil
}
