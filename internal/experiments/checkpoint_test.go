package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/faultinject"
	"lvf2/internal/fit"
)

// cancelWhenResolved cancels ctx once the journal holds at least n
// records — a deterministic-enough mid-run kill point.
func cancelWhenResolved(j *checkpoint.Journal, n int, cancel context.CancelFunc, stop <-chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if len(j.Records()) >= n {
				cancel()
				return
			}
		}
	}()
}

func TestTable1CheckpointResume(t *testing.T) {
	cfg := Config{Samples: 1500, Workers: 2}
	golden, err := Table1(cfg)
	if err != nil {
		t.Fatalf("golden Table1: %v", err)
	}

	fsys := faultinject.NewMemFS()
	fp := cfg.Table1Fingerprint()
	j, err := checkpoint.Open(fsys, "ckpt", fp, checkpoint.Options{FlushEvery: 1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	cancelWhenResolved(j, 1, cancel, stop)
	icfg := cfg
	icfg.Checkpoint = j
	_, ierr := Table1Ctx(ctx, icfg)
	close(stop)
	j.Close()
	// The kill may land after the last unit; both shapes are legal, but
	// the journal must hold at least the record that triggered it.

	j2, err := checkpoint.Open(fsys, "ckpt", fp, checkpoint.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if j2.Stats().Resolved == 0 {
		t.Fatalf("nothing journaled before the kill (run err %v)", ierr)
	}
	rcfg := cfg
	rcfg.Checkpoint = j2
	rows, err := Table1Ctx(context.Background(), rcfg)
	if err != nil {
		t.Fatalf("resumed Table1: %v", err)
	}
	if len(rows) != len(golden) {
		t.Fatalf("row count %d vs %d", len(rows), len(golden))
	}
	restored := 0
	for i, r := range rows {
		if !reflect.DeepEqual(r.BinReduction, golden[i].BinReduction) {
			t.Errorf("scenario %s: resumed reductions %v != golden %v",
				r.Scenario.Name, r.BinReduction, golden[i].BinReduction)
		}
		if r.Restored {
			restored++
			if r.Golden != nil || r.Evals != nil {
				t.Errorf("restored row %s carries recomputed curves", r.Scenario.Name)
			}
		}
	}
	if restored == 0 {
		t.Error("no row restored from the journal")
	}
}

func TestTable2CheckpointResume(t *testing.T) {
	cfg := Table2Config{
		Config:      Config{Samples: 400, Workers: 4},
		ArcsPerType: 1,
		GridStride:  4,
	}
	golden, err := Table2(cfg)
	if err != nil {
		t.Fatalf("golden Table2: %v", err)
	}

	fsys := faultinject.NewMemFS()
	fp := cfg.Table2Fingerprint()
	j, err := checkpoint.Open(fsys, "ckpt", fp, checkpoint.Options{FlushEvery: 8})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	cancelWhenResolved(j, 40, cancel, stop)
	icfg := cfg
	icfg.Checkpoint = j
	_, ierr := Table2Ctx(ctx, icfg)
	close(stop)
	j.Close()

	j2, err := checkpoint.Open(fsys, "ckpt", fp, checkpoint.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if j2.Stats().Resolved == 0 {
		t.Fatalf("nothing journaled before the kill (run err %v)", ierr)
	}
	rcfg := cfg
	rcfg.Checkpoint = j2
	rows, err := Table2Ctx(context.Background(), rcfg)
	if err != nil {
		t.Fatalf("resumed Table2: %v", err)
	}
	if len(rows) != len(golden) {
		t.Fatalf("row count %d vs %d", len(rows), len(golden))
	}
	for i, r := range rows {
		g := golden[i]
		for name, pair := range map[string][2]map[fit.Model]float64{
			"delay-bin":   {r.DelayBin, g.DelayBin},
			"trans-bin":   {r.TransBin, g.TransBin},
			"delay-yield": {r.DelayYield, g.DelayYield},
			"trans-yield": {r.TransYield, g.TransYield},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("%s %s: resumed %v != golden %v", r.Cell, name, pair[0], pair[1])
			}
		}
	}
}

// TestTablesQuarantinedUnits: a quarantined unit carries the empty
// reductions salvage. Table 1 renders it as an empty row, and Table 2
// leaves it out of its averages instead of averaging it in as zeros.
func TestTablesQuarantinedUnits(t *testing.T) {
	payload, rung := noReductions(errors.New("poison"))
	note := checkpoint.QuarantineNote("poison")
	open := func(fp checkpoint.Fingerprint) *checkpoint.Journal {
		t.Helper()
		j, err := checkpoint.Open(faultinject.NewMemFS(), "ckpt", fp, checkpoint.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return j
	}

	cfg := Config{Samples: 1500, Workers: 2}
	golden1, err := Table1(cfg)
	if err != nil {
		t.Fatalf("golden Table1: %v", err)
	}
	cfg.Checkpoint = open(cfg.Table1Fingerprint())
	poison := golden1[0].Scenario.Name
	cfg.Checkpoint.Quarantined(checkpoint.Key{Cell: "experiments", Pin: "table1", Arc: poison, Kind: "scenario"},
		rung, note, payload)
	rows1, err := Table1(cfg)
	if err != nil {
		t.Fatalf("Table1 with a quarantined scenario: %v", err)
	}
	if r := rows1[0]; r.Scenario.Name != poison || !r.Restored || len(r.BinReduction) != 0 {
		t.Errorf("quarantined scenario row = %s restored=%v %v, want an empty restored row", r.Scenario.Name, r.Restored, r.BinReduction)
	}
	for i := 1; i < len(rows1); i++ {
		if !reflect.DeepEqual(rows1[i].BinReduction, golden1[i].BinReduction) {
			t.Errorf("scenario %s: %v != golden %v", rows1[i].Scenario.Name, rows1[i].BinReduction, golden1[i].BinReduction)
		}
	}

	cfg2 := Table2Config{Config: Config{Samples: 400, Workers: 4}, ArcsPerType: 1, GridStride: 4}
	golden2, err := Table2(cfg2)
	if err != nil {
		t.Fatalf("golden Table2: %v", err)
	}
	cfg2.Checkpoint = open(cfg2.Table2Fingerprint())
	arc := cells.Library()[0].Arcs()[0]
	for _, gp := range (cells.CharConfig{GridStride: cfg2.GridStride}).SweepPoints() {
		k := checkpoint.Key{Cell: arc.Cell, Pin: "table2", Arc: arc.Label, Slew: gp.SlewIdx, Load: gp.LoadIdx, Kind: cells.Delay.String()}
		cfg2.Checkpoint.Quarantined(k, rung, note, payload)
	}
	rows2, err := Table2(cfg2)
	if err != nil {
		t.Fatalf("Table2 with quarantined units: %v", err)
	}
	if r := rows2[0]; len(r.DelayBin) != 0 || len(r.DelayYield) != 0 {
		t.Errorf("%s: delay averages %v / %v over quarantined units only, want none", r.Cell, r.DelayBin, r.DelayYield)
	}
	if !reflect.DeepEqual(rows2[0].TransBin, golden2[0].TransBin) || !reflect.DeepEqual(rows2[1:], golden2[1:]) {
		t.Error("quarantining one arc's Delay units moved other averages")
	}
}

func TestTable1FingerprintSensitivity(t *testing.T) {
	a := Config{Samples: 100}.Table1Fingerprint()
	b := Config{Samples: 200}.Table1Fingerprint()
	if a == b {
		t.Error("sample count not part of the Table 1 fingerprint")
	}
	c := Config{Samples: 100, Seed: 9}.Table1Fingerprint()
	if a == c {
		t.Error("seed not part of the Table 1 fingerprint")
	}
}

// TestFingerprintsNameFitRevision: journaled rows hold error reductions
// of fitted models, so a journal from other fit numerics must not resume.
func TestFingerprintsNameFitRevision(t *testing.T) {
	for name, fp := range map[string]checkpoint.Fingerprint{
		"table1": Config{}.Table1Fingerprint(),
		"table2": Table2Config{}.Table2Fingerprint(),
	} {
		if !strings.HasSuffix(fp.Options, "|fit="+fit.Revision) {
			t.Errorf("%s fingerprint options %q do not name fit revision %q", name, fp.Options, fit.Revision)
		}
	}
}

func TestReductionsCodecRoundtrip(t *testing.T) {
	vals := map[fit.Model][2]float64{
		fit.ModelLVF2:  {1.25, 3.5},
		fit.ModelNorm2: {0.5, -2},
		fit.ModelLVF:   {1, 0},
	}
	got, err := decodeReductions2(encodeReductions2(vals))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Errorf("roundtrip %v != %v", got, vals)
	}

	one := map[fit.Model]float64{fit.ModelLESN: 7.75}
	got1, err := decodeReductions1(encodeReductions1(one))
	if err != nil {
		t.Fatalf("decode1: %v", err)
	}
	if !reflect.DeepEqual(got1, one) {
		t.Errorf("roundtrip1 %v != %v", got1, one)
	}

	if _, err := decodeReductions2([]byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
	if _, err := decodeReductions2([]byte{5, 0, 0, 0, 9}); err == nil {
		t.Error("length-mismatched payload accepted")
	}
}
