// Package dist distributes a journaled library build across processes:
// a coordinator leases checkpoint work units to workers over plain
// HTTP/JSON and journals their results, so N machines characterise one
// library with the same durability and quarantine semantics — and the
// same bits — as a single resumable process.
//
// The protocol is deliberately small:
//
//	POST /v1/dist/join       worker announces itself, learns the build
//	POST /v1/dist/lease      worker asks for work (a pair lease or a
//	                         salvage lease), or learns to wait / stop
//	POST /v1/dist/heartbeat  worker renews a held lease
//	POST /v1/dist/complete   worker submits one unit result
//
// Everything that matters for correctness lives in the journal, not the
// protocol: leases are soft state (a crashed coordinator restarts from
// the journal alone and re-leases whatever is not terminal), results
// are idempotent (keyed by unit key + config fingerprint, deduplicated
// against the journal), and unit payloads are deterministic, so it
// never matters which worker's submission wins.
package dist

import (
	"fmt"
	"strings"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/libbuild"
)

// Protocol endpoint paths.
const (
	PathJoin      = "/v1/dist/join"
	PathLease     = "/v1/dist/lease"
	PathHeartbeat = "/v1/dist/heartbeat"
	PathComplete  = "/v1/dist/complete"
)

// BuildSpec is the portable description of one library build — the
// fields a worker needs to reconstruct the coordinator's
// libbuild.Config bit for bit. Cell types travel by name; both sides
// must run the same binary (or at least the same synthetic library),
// which the config fingerprint enforces on every submission.
type BuildSpec struct {
	Cells      []string `json:"cells"`
	ArcsPer    int      `json:"arcs_per"`
	Samples    int      `json:"samples"`
	Seed       uint64   `json:"seed"`
	GridStride int      `json:"grid_stride"`
	LVF2       bool     `json:"lvf2"`
	ColdStart  bool     `json:"cold_start,omitempty"`
}

// SpecFromConfig extracts the portable spec of a build configuration.
func SpecFromConfig(cfg libbuild.Config) BuildSpec {
	names := make([]string, len(cfg.Types))
	for i, t := range cfg.Types {
		names[i] = t.Name
	}
	ch := cfg.Char.WithDefaults()
	return BuildSpec{
		Cells:      names,
		ArcsPer:    cfg.ArcsPer,
		Samples:    ch.Samples,
		Seed:       ch.Seed,
		GridStride: ch.GridStride,
		LVF2:       cfg.LVF2,
		ColdStart:  cfg.ColdStart,
	}
}

// Config reconstructs the libbuild configuration the spec describes.
func (s BuildSpec) Config() (libbuild.Config, error) {
	types := make([]cells.CellType, 0, len(s.Cells))
	for _, name := range s.Cells {
		ct, ok := cells.CellByName(strings.TrimSpace(name))
		if !ok {
			return libbuild.Config{}, fmt.Errorf("dist: build spec names unknown cell %q", name)
		}
		types = append(types, ct)
	}
	return libbuild.Config{
		Types:     types,
		ArcsPer:   s.ArcsPer,
		Char:      cells.CharConfig{Samples: s.Samples, Seed: s.Seed, GridStride: s.GridStride},
		LVF2:      s.LVF2,
		ColdStart: s.ColdStart,
	}, nil
}

// JoinRequest announces a worker.
type JoinRequest struct {
	Worker string `json:"worker"`
}

// JoinResponse hands the worker everything it needs to start leasing.
type JoinResponse struct {
	Spec        BuildSpec `json:"spec"`
	Fingerprint uint64    `json:"fingerprint"` // folded config fingerprint
	LeaseTTLMs  int64     `json:"lease_ttl_ms"`
	HeartbeatMs int64     `json:"heartbeat_ms"`
}

// LeaseRequest asks for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease grants a worker exclusive (but time-bounded) responsibility for
// a set of sibling units — the Delay and Transition of one grid point,
// so the worker shares their Monte-Carlo pass — or, when Salvage is
// set, a single poison unit to run through the quarantine ladder.
type Lease struct {
	ID      uint64           `json:"id"`
	Keys    []checkpoint.Key `json:"keys"`
	Salvage bool             `json:"salvage"`
	// LastErr is the cause that sent a salvage unit to the ladder; it
	// becomes its quarantine note.
	LastErr string `json:"last_err,omitempty"`
	TTLMs   int64  `json:"ttl_ms"`
}

// LeaseResponse is work, a wait hint, or the end of the build.
type LeaseResponse struct {
	// Done reports every unit is journaled terminal: the worker exits.
	Done bool `json:"done"`
	// WaitMs asks the worker to poll again later (every pending unit is
	// currently leased).
	WaitMs int64  `json:"wait_ms,omitempty"`
	Lease  *Lease `json:"lease,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID uint64 `json:"lease_id"`
}

// HeartbeatResponse: OK=false means the lease is gone (expired and
// possibly re-leased) — the worker must abandon the work in flight.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest submits one unit outcome. OK with Payload is a
// finished fit (Rung set for a salvage emission); !OK with Err is a
// worker-observed unit fault, which sends the unit straight to a
// salvage lease: the fit is pure, so a re-run would fail the same way.
type CompleteRequest struct {
	Worker      string         `json:"worker"`
	Fingerprint uint64         `json:"fingerprint"`
	LeaseID     uint64         `json:"lease_id"`
	Key         checkpoint.Key `json:"key"`
	OK          bool           `json:"ok"`
	Payload     []byte         `json:"payload,omitempty"`
	Rung        string         `json:"rung,omitempty"`
	Err         string         `json:"err,omitempty"`
}

// CompleteResponse acknowledges a submission. Duplicate reports the
// unit was already terminal — the submission was accepted and
// discarded, never double-journaled. Done mirrors LeaseResponse.Done so
// a worker can exit without an extra round trip.
type CompleteResponse struct {
	Accepted  bool `json:"accepted"`
	Duplicate bool `json:"duplicate"`
	Done      bool `json:"done"`
}
