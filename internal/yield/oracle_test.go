package yield

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"lvf2/internal/mc"
)

// serialSampleLoop and serialAIS are the single-goroutine batch loops the
// draw → score → fold estimators replaced, kept verbatim as the oracle
// the parallel scorer must reproduce bit for bit.
func serialSampleLoop(ctx context.Context, spec Spec, c Contract, rng *mc.RNG, center []float64, searchEvals int, name string) Result {
	m := &mc.Matrix{}

	var a acc
	var halfNorm2 float64
	var x []float64
	if center != nil {
		for _, ci := range center {
			halfNorm2 += ci * ci / 2
		}
		x = make([]float64, spec.Dim)
	}
	budget := c.MaxSamples - searchEvals
	for a.n < budget && ctx.Err() == nil {
		batch := c.Batch
		if rem := budget - a.n; batch > rem {
			batch = rem
		}
		pts := mc.GaussianLHSInto(rng, batch, spec.Dim, m)
		for _, z := range pts {
			w := 1.0
			row := z
			if center != nil {
				var dot float64
				for j, cj := range center {
					dot += z[j] * cj
					x[j] = z[j] + cj
				}
				w = math.Exp(-dot - halfNorm2)
				row = x
			}
			a.observe(w, spec.Eval(row) > spec.Threshold)
		}
		a.batches++
		if r := a.result(name, c, searchEvals, nil); r.Converged {
			break
		}
	}
	return a.result(name, c, searchEvals, center)
}

func serialAIS(ctx context.Context, spec Spec, c Contract, rng *mc.RNG, center []float64, searchEvals int) Result {
	m := &mc.Matrix{}

	var a acc
	d := spec.Dim
	x := make([]float64, d)
	cx := make([]float64, d)
	budget := c.MaxSamples - searchEvals
	for a.n < budget && ctx.Err() == nil {
		batch := c.Batch
		if rem := budget - a.n; batch > rem {
			batch = rem
		}
		var halfNorm2 float64
		for _, ci := range center {
			halfNorm2 += ci * ci / 2
		}
		var cw float64
		for j := range cx {
			cx[j] = 0
		}
		pts := mc.GaussianLHSInto(rng, batch, d, m)
		for _, z := range pts {
			var dot float64
			for j, cj := range center {
				dot += z[j] * cj
				x[j] = z[j] + cj
			}
			w := math.Exp(-dot - halfNorm2)
			failed := spec.Eval(x) > spec.Threshold
			a.observe(w, failed)
			if failed && a.batches < aisAdaptRounds {
				cw += w
				for j, xj := range x {
					cx[j] += w * xj
				}
			}
		}
		a.batches++
		if r := a.result("ais", c, searchEvals, nil); r.Converged {
			break
		}
		if a.batches <= aisAdaptRounds && cw > 0 {
			var norm float64
			for j := range center {
				center[j] = cx[j] / cw
				norm += center[j] * center[j]
			}
			if norm = math.Sqrt(norm); norm > aisCenterCap {
				for j := range center {
					center[j] *= aisCenterCap / norm
				}
			}
		}
	}
	return a.result("ais", c, searchEvals, center)
}

// serialEstimate runs the named estimator through the serial loops.
func serialEstimate(t *testing.T, name string, spec Spec, c Contract) Result {
	t.Helper()
	c = c.WithDefaults()
	rng := mc.NewRNG(c.Seed)
	ctx := context.Background()
	switch name {
	case "mc":
		return serialSampleLoop(ctx, spec, c, rng, nil, 0, "mc")
	case "mnis":
		center, evals, ok := minNormFailure(spec, rng, searchBudget(c))
		if !ok {
			t.Fatalf("mnis oracle: no failure region")
		}
		return serialSampleLoop(ctx, spec, c, rng, center, evals, "mnis")
	case "ais":
		center, evals, ok := minNormFailure(spec, rng, searchBudget(c)/2)
		if !ok {
			t.Fatalf("ais oracle: no failure region")
		}
		return serialAIS(ctx, spec, c, rng, center, evals)
	}
	t.Fatalf("no serial oracle for %q", name)
	return Result{}
}

// sameBits reports whether two values are equal with every float64
// compared by its bit pattern.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestYieldBitIdenticalToSerial: every estimator's Result equals the
// serial oracle's bit for bit, whatever GOMAXPROCS the scorer spreads
// over (make determinism runs this at -cpu 1,2,4,8). The batch sizes
// cover several chunks per batch, a partial chunk split, a single chunk
// and a batch smaller than one chunk; the budget contract cuts the last
// batch short, the loose contract closes on a convergence check.
func TestYieldBitIdenticalToSerial(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"INV", arcSpec(t, 4)},
		{"NAND2/s0.003/l0.04", arcSpecAt(t, "NAND2", 0.003, 0.04, 4)},
		{"gaussian", gaussianSpec(4)},
	}
	for _, sp := range specs {
		for _, batch := range []int{4096, 1500, 1000, 100} {
			contracts := []struct {
				name string
				c    Contract
			}{
				{"budget", Contract{Batch: batch, MaxSamples: 20123}},
				{"converge", Contract{Batch: batch, RelErr: 0.1, MaxSamples: 1 << 17}},
			}
			for _, ct := range contracts {
				cname, c := ct.name, ct.c
				for _, name := range Names {
					t.Run(fmt.Sprintf("%s/batch%d/%s/%s", sp.name, batch, cname, name), func(t *testing.T) {
						est, err := New(name)
						if err != nil {
							t.Fatal(err)
						}
						got, err := est.Estimate(context.Background(), sp.spec, c)
						if err != nil {
							t.Fatal(err)
						}
						want := serialEstimate(t, name, sp.spec, c)
						if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
							t.Fatalf("parallel result differs from the serial oracle:\n got %+v\nwant %+v", got, want)
						}
						if cname == "budget" && got.Samples != c.MaxSamples {
							t.Fatalf("budget contract spent %d samples, want the full %d", got.Samples, c.MaxSamples)
						}
						if cname == "converge" && name != "mc" && !got.Converged {
							t.Fatalf("loose contract did not converge in %d samples", got.Samples)
						}
					})
				}
			}
		}
	}
}
