package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"lvf2/internal/checkpoint"
	"lvf2/internal/fit"
	"lvf2/internal/spice"
)

// Checkpoint plumbing for the experiment drivers: the config
// fingerprints that gate journal reuse, and the payload codecs that
// carry a unit's error-reduction values across a restart. Values are
// stored as raw IEEE-754 bits, so a restored row is bit-identical to
// the one an uninterrupted run would have produced.

// Table1Fingerprint identifies a Table 1 run for journal reuse. The
// scenario set is part of the library identity: resuming a journal
// against a different scenario list would misattribute rows.
func (c Config) Table1Fingerprint() checkpoint.Fingerprint {
	c = c.WithDefaults()
	scenarios, _ := spice.Scenarios()
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		names[i] = sc.Name
	}
	return checkpoint.Fingerprint{
		Library:    fmt.Sprintf("experiments/table1/%v", names),
		Seed:       c.Seed,
		Samples:    c.Samples,
		GridStride: 1,
		Options:    fmt.Sprintf("models=%v|cap=%g|fit=%s", c.Models, c.Cap, fit.Revision),
	}
}

// Table2Fingerprint identifies a Table 2 sweep for journal reuse.
func (c Table2Config) Table2Fingerprint() checkpoint.Fingerprint {
	c = c.WithDefaults()
	return checkpoint.Fingerprint{
		Library:    fmt.Sprintf("experiments/table2/arcs=%d", c.ArcsPerType),
		Seed:       c.Seed,
		Samples:    c.Samples,
		GridStride: c.GridStride,
		Options:    fmt.Sprintf("models=%v|cap=%g|fit=%s", fit.AllModels, c.Cap, fit.Revision),
	}
}

// encodeReductions1 serialises a Table 1 row's per-model bin reductions
// (sorted by model id, so equal maps encode to equal bytes).
func encodeReductions1(vals map[fit.Model]float64) []byte {
	wide := make(map[fit.Model][2]float64, len(vals))
	for m, v := range vals {
		wide[m] = [2]float64{v, 0}
	}
	return encodeReductions2(wide)
}

func decodeReductions1(b []byte) (map[fit.Model]float64, error) {
	wide, err := decodeReductions2(b)
	if err != nil {
		return nil, err
	}
	out := make(map[fit.Model]float64, len(wide))
	for m, v := range wide {
		out[m] = v[0]
	}
	return out, nil
}

// noReductions is the salvage of a poison Table 1 or Table 2 unit: an
// empty reductions payload. Table 1 renders it as an empty row; Table 2
// leaves the unit out of its averages.
func noReductions(error) ([]byte, string) { return encodeReductions2(nil), "empty" }

// encodeReductions2 serialises a Table 2 unit's per-model [bin, yield]
// reduction pair.
func encodeReductions2(vals map[fit.Model][2]float64) []byte {
	models := make([]fit.Model, 0, len(vals))
	for m := range vals {
		models = append(models, m)
	}
	sort.Slice(models, func(i, j int) bool { return models[i] < models[j] })
	b := make([]byte, 0, 4+len(models)*(4+16))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(models)))
	for _, m := range models {
		b = binary.LittleEndian.AppendUint32(b, uint32(m))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vals[m][0]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vals[m][1]))
	}
	return b
}

func decodeReductions2(b []byte) (map[fit.Model][2]float64, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("short reductions payload (%d bytes)", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) != 4+n*20 {
		return nil, fmt.Errorf("reductions payload: %d entries do not fit %d bytes", n, len(b))
	}
	out := make(map[fit.Model][2]float64, n)
	for i := 0; i < n; i++ {
		off := 4 + i*20
		m := fit.Model(binary.LittleEndian.Uint32(b[off:]))
		out[m] = [2]float64{
			math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[off+12:])),
		}
	}
	return out, nil
}
