package libbuild

import (
	"context"
	"fmt"
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
// Transition at each point. The distributed coordinator leases from
// exactly this sequence, so every process — coordinator, worker,
// single-machine build — agrees on the unit universe and its order.
func Plan(cfg Config) ([]UnitRef, error) {
	if len(cfg.Types) == 0 {
		return nil, fmt.Errorf("libbuild: no cell types")
	}
	cfg.Char = cfg.Char.WithDefaults()
	jobs, _ := planJobs(cfg)
	points := cfg.Char.SweepPoints()
	refs := make([]UnitRef, 0, len(jobs)*len(points)*2)
	for _, j := range jobs {
		for _, p := range points {
			for _, kind := range [...]cells.Kind{cells.Delay, cells.Transition} {
				refs = append(refs, UnitRef{
					Key: checkpoint.Key{Cell: j.arc.Cell, Pin: j.pin, Arc: j.arc.Label,
						Slew: p.SlewIdx, Load: p.LoadIdx, Kind: kind.String()},
					Arc: j.arc,
				})
			}
		}
	}
	return refs, nil
}

// arcCoord indexes an executor's plan by the key fields that name an arc.
type arcCoord struct{ cell, pin, arc string }

// pointSamples is one characterised grid point: the two distributions
// (Delay, Transition) its pair of units fit from.
type pointSamples struct {
	coord  arcCoord
	si, li int
	byKind map[string]cells.Distribution
}

// Executor computes work-unit payloads outside the in-process build
// loop — the seam a distributed worker runs leased checkpoint units
// through. Execute characterises the unit's grid point on demand and
// fits through the same code path as Build, so a payload computed
// remotely is bit-identical to one computed locally. A small cache of
// characterised points lets the sibling unit of a pair lease (Delay and
// Transition of one grid point) reuse the Monte-Carlo pass, mirroring
// the MC sharing of the single-process build.
type Executor struct {
	// FitHook observes every primary fit attempt before it runs; FitErr
	// injects a unit fault. Both are test seams, mirroring the Config
	// ones the in-process build uses.
	FitHook func(checkpoint.Key)
	FitErr  func(checkpoint.Key) error

	cfg  Config
	jobs map[arcCoord]arcJob

	mu    sync.Mutex
	cache []pointSamples
	seeds map[seedCoord]*fit.Seed
}

// seedCoord names one link of the warm-start seed chains: the arc, the
// grid point and the fitted kind.
type seedCoord struct {
	coord  arcCoord
	si, li int
	kind   string
}

// executorCachePoints bounds the characterised-point cache. Leases
// arrive point by point, so a worker only ever needs the last few.
const executorCachePoints = 4

// NewExecutor builds the executor for one build configuration. The
// configuration must match the coordinator's bit for bit (same
// fingerprint) or the fitted payloads would diverge.
func NewExecutor(cfg Config) (*Executor, error) {
	if len(cfg.Types) == 0 {
		return nil, fmt.Errorf("libbuild: executor: no cell types")
	}
	cfg.Char = cfg.Char.WithDefaults()
	jobs, _ := planJobs(cfg)
	byCoord := make(map[arcCoord]arcJob, len(jobs))
	for _, j := range jobs {
		byCoord[arcCoord{cell: j.arc.Cell, pin: j.pin, arc: j.arc.Label}] = j
	}
	return &Executor{cfg: cfg, jobs: byCoord}, nil
}

// Fingerprint is the executor's configuration fingerprint, stamped on
// every distributed result submission.
func (e *Executor) Fingerprint() checkpoint.Fingerprint { return e.cfg.Fingerprint() }

// point returns the characterised distributions of one grid point,
// running the Monte-Carlo pass on a cache miss.
func (e *Executor) point(ctx context.Context, job arcJob, coord arcCoord, si, li int) (map[string]cells.Distribution, error) {
	e.mu.Lock()
	for _, p := range e.cache {
		if p.coord == coord && p.si == si && p.li == li {
			byKind := p.byKind
			e.mu.Unlock()
			return byKind, nil
		}
	}
	e.mu.Unlock()

	charCfg := e.cfg.Char
	charCfg.Skip = func(_ cells.Arc, psi, pli int) bool { return psi != si || pli != li }
	dists, err := cells.CharacterizeArcCtx(ctx, charCfg, job.arc)
	if err != nil {
		return nil, err
	}
	byKind := make(map[string]cells.Distribution, len(dists))
	for _, d := range dists {
		byKind[d.Kind.String()] = d
	}

	e.mu.Lock()
	e.cache = append(e.cache, pointSamples{coord: coord, si: si, li: li, byKind: byKind})
	if len(e.cache) > executorCachePoints {
		e.cache = e.cache[len(e.cache)-executorCachePoints:]
	}
	e.mu.Unlock()
	return byKind, nil
}

// lookup resolves a unit key against the build plan.
func (e *Executor) lookup(k checkpoint.Key) (arcJob, arcCoord, error) {
	coord := arcCoord{cell: k.Cell, pin: k.Pin, arc: k.Arc}
	job, ok := e.jobs[coord]
	if !ok {
		return arcJob{}, coord, fmt.Errorf("libbuild: executor: unit %s is not in the build plan", k)
	}
	if k.Slew < 0 || k.Slew >= len(e.cfg.Char.Grid.Slews) || k.Load < 0 || k.Load >= len(e.cfg.Char.Grid.Loads) {
		return arcJob{}, coord, fmt.Errorf("libbuild: executor: unit %s addresses an off-grid point", k)
	}
	return job, coord, nil
}

// Execute characterises and fits one work unit, returning the payload
// the journal would hold for a Done record.
func (e *Executor) Execute(ctx context.Context, k checkpoint.Key) ([]byte, error) {
	job, coord, err := e.lookup(k)
	if err != nil {
		return nil, err
	}
	if e.FitHook != nil {
		e.FitHook(k)
	}
	if e.FitErr != nil {
		if ferr := e.FitErr(k); ferr != nil {
			return nil, ferr
		}
	}
	byKind, err := e.point(ctx, job, coord, k.Slew, k.Load)
	if err != nil {
		return nil, err
	}
	d, have := byKind[k.Kind]
	if !have {
		return nil, fmt.Errorf("libbuild: executor: no samples for unit %s", k)
	}
	seed, err := e.unitSeed(ctx, job, coord, k)
	if err != nil {
		return nil, err
	}
	requested := requestedModel(e.cfg)
	return fitUnitPayload(requested, e.cfg.Char.GridStride, k, d, seed)
}

// seedCacheEntries bounds the seed-chain cache. Leases arrive in plan
// order, so a worker only ever revisits the last few rows; the bound
// just keeps a long-lived worker from accumulating every link it has
// ever fitted.
const seedCacheEntries = 512

// unitSeed derives the warm-start seed for unit k. A worker cannot read
// the coordinator's journal, so it recomputes what the in-process build
// would have journaled: every fit along the way is a pure function of
// the arc configuration and the point's deterministic samples, which
// makes the recomputed seed — and therefore the submitted payload —
// bit-identical to what an in-process build derives from its own
// journal. A column-0 (anchor) unit is seeded by the previous row's
// anchor, the column-0 chain walked from the arc's first row, which
// always fits cold; any other unit is seeded by its nearest fitted left
// neighbour in the row. Non-LVF² builds and ColdStart builds seed nil.
func (e *Executor) unitSeed(ctx context.Context, job arcJob, coord arcCoord, k checkpoint.Key) (*fit.Seed, error) {
	if requestedModel(e.cfg) != fit.ModelLVF2 || e.cfg.ColdStart {
		return nil, nil
	}
	if k.Load == 0 {
		return e.seedAfter(ctx, job, coord, k, k.Slew-e.gridStride(), 0)
	}
	return e.seedAfter(ctx, job, coord, k, k.Slew, k.Load-e.gridStride())
}

// gridStride is the slew/load index step between swept grid points.
func (e *Executor) gridStride() int {
	if s := e.cfg.Char.GridStride; s > 0 {
		return s
	}
	return 1
}

// seedAfter returns the seed available after the fit of point (si, li)
// of k's arc and kind — i.e. what the in-process build's rowSeed (or,
// at li == 0, its column-0 anchor) holds once that unit resolves: the
// unit's own decoded model when the fit is clean; past a dirty mid-row
// unit, the nearest clean left neighbour passes through; a dirty anchor
// yields nil (both chains cold-start). It recurses left along the row
// and up the column-0 chain, reusing cached links.
func (e *Executor) seedAfter(ctx context.Context, job arcJob, coord arcCoord, k checkpoint.Key, si, li int) (*fit.Seed, error) {
	if si < 0 {
		return nil, nil
	}
	ck := seedCoord{coord: coord, si: si, li: li, kind: k.Kind}
	e.mu.Lock()
	seed, cached := e.seeds[ck]
	e.mu.Unlock()
	if cached {
		return seed, nil
	}

	var prior *fit.Seed
	var err error
	if li == 0 {
		prior, err = e.seedAfter(ctx, job, coord, k, si-e.gridStride(), 0)
	} else {
		prior, err = e.seedAfter(ctx, job, coord, k, si, li-e.gridStride())
		seed = prior // a dirty mid-row fit passes its left neighbour through
	}
	if err != nil {
		return nil, err
	}
	byKind, err := e.point(ctx, job, coord, si, li)
	if err != nil {
		return nil, err
	}
	if d, have := byKind[k.Kind]; have {
		uk := checkpoint.Key{Cell: k.Cell, Pin: k.Pin, Arc: k.Arc, Slew: si, Load: li, Kind: k.Kind}
		if payload, ferr := fitUnitPayload(fit.ModelLVF2, e.cfg.Char.GridStride, uk, d, prior); ferr == nil {
			if _, m, note, _, derr := decodeUnit(payload); derr == nil && note == "" {
				seed = seedFromModel(m)
			}
		}
	}

	e.mu.Lock()
	if e.seeds == nil || len(e.seeds) >= seedCacheEntries {
		e.seeds = make(map[seedCoord]*fit.Seed, 16)
	}
	e.seeds[ck] = seed
	e.mu.Unlock()
	return seed, nil
}

// Salvage runs the quarantine ladder for a poison unit, returning the
// degraded payload and the rung that produced it. The floored-Gaussian
// terminal rung cannot fail, so Salvage only errors on cancellation or
// a unit outside the plan.
func (e *Executor) Salvage(ctx context.Context, k checkpoint.Key) (payload []byte, rung string, err error) {
	job, coord, err := e.lookup(k)
	if err != nil {
		return nil, "", err
	}
	byKind, err := e.point(ctx, job, coord, k.Slew, k.Load)
	if err != nil {
		return nil, "", err
	}
	d, have := byKind[k.Kind]
	payload, rung = salvageUnitPayload(d, have)
	return payload, rung, nil
}
