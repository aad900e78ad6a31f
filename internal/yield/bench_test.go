package yield

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkYieldContract measures samples-to-contract for every
// estimator rung at 3σ/4σ/5σ on the 6-dimensional process-space INV
// problem — the BENCH_yield.json evidence behind the estimator ladder:
// MNIS/AIS close the ±1% CI at 4σ and 5σ inside budgets where plain MC
// cannot, at orders of magnitude fewer samples than MC needs (reported
// as samples-to-target/op, projected from MC's achieved variance when
// the budget caps it — the converged=0 metric flags those rows).
//
// Under -short (the bench-smoke gate) the sigma ladder shrinks to 3σ
// with a relaxed contract so the full code path runs in seconds.
func BenchmarkYieldContract(b *testing.B) {
	sigmas := []float64{3, 4, 5}
	contract := Contract{}
	if testing.Short() {
		sigmas = []float64{3}
		contract = Contract{RelErr: 0.05, MaxSamples: 1 << 19}
	}
	for _, sigma := range sigmas {
		spec := arcSpec(b, sigma)
		for _, name := range Names {
			c := contract
			if !testing.Short() && name == "mc" && sigma == 3 {
				// Plain MC can genuinely close the 3σ contract; give it the
				// budget to do so, so the baseline row is a real measurement.
				c.MaxSamples = 1 << 25
			}
			b.Run(fmt.Sprintf("sigma%g/%s", sigma, name), func(b *testing.B) {
				est, err := New(name)
				if err != nil {
					b.Fatal(err)
				}
				var r Result
				for i := 0; i < b.N; i++ {
					r, err = est.Estimate(context.Background(), spec, c)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.Samples), "samples/op")
				b.ReportMetric(ProjectedSamples(r, c), "samples-to-target/op")
				b.ReportMetric(r.FailProb, "failprob/op")
				b.ReportMetric(boolMetric(r.Converged), "converged/op")
				if r.RelHalfWidth < 1e6 {
					b.ReportMetric(r.RelHalfWidth, "ci-rel/op")
				}
			})
		}
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkYieldLatent measures the fitted-model serving fast path: the
// one-dimensional latent spec the /v1/yield handler runs per request.
func BenchmarkYieldLatent(b *testing.B) {
	spec := gaussianSpec(4)
	est, _ := New("mnis")
	b.ReportAllocs()
	var r Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = est.Estimate(context.Background(), spec, Contract{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Samples), "samples/op")
}

// BenchmarkYieldProcessEstimate measures the cost per process-space
// sample of the importance-sampling rungs at 4σ on the INV arc: the
// failure-point search, the Φ⁻¹ transforms, the spice evaluations and
// the fold, spread over GOMAXPROCS scoring workers (compare -cpu 1,2).
// Under -short the contract relaxes so the code path runs in well under
// a second.
func BenchmarkYieldProcessEstimate(b *testing.B) {
	spec := arcSpec(b, 4)
	contract := Contract{}
	if testing.Short() {
		contract = Contract{RelErr: 0.05, MaxSamples: 1 << 17}
	}
	for _, name := range []string{"mnis", "ais"} {
		b.Run(name, func(b *testing.B) {
			est, err := New(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var samples int
			for i := 0; i < b.N; i++ {
				r, err := est.Estimate(context.Background(), spec, contract)
				if err != nil {
					b.Fatal(err)
				}
				samples += r.Samples
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
			b.ReportMetric(float64(samples)/float64(b.N), "samples/op")
		})
	}
}
