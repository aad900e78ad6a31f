package yield

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/mc"
	"lvf2/internal/spice"
	"lvf2/internal/stats"
)

// gaussianSpec is the analytic oracle: a pure-Gaussian arc whose tail
// probability beyond μ+sσ is exactly Φ(−s).
func gaussianSpec(s float64) Spec {
	return FromDist(stats.Normal{Mu: 0.012, Sigma: 0.0008}, 0.012+s*0.0008)
}

// TestOracleGaussianTail: on a pure-Gaussian arc the IS estimators must
// match the closed-form tail probability at 4σ–6σ within the CI they
// themselves report. Everything is seeded, so this is a sharp check, not
// a flaky 95% one.
func TestOracleGaussianTail(t *testing.T) {
	for _, sigma := range []float64{4, 5, 6} {
		truth := stats.StdNormCDF(-sigma)
		spec := gaussianSpec(sigma)
		for _, name := range []string{"mnis", "ais"} {
			est, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := est.Estimate(context.Background(), spec, Contract{})
			if err != nil {
				t.Fatalf("%s at %gσ: %v", name, sigma, err)
			}
			if !r.Converged {
				t.Errorf("%s at %gσ: not converged after %d samples (rel %.3g)", name, sigma, r.Samples, r.RelHalfWidth)
			}
			if truth < r.CI.Lo || truth > r.CI.Hi {
				t.Errorf("%s at %gσ: closed-form %.4g outside reported CI [%.4g, %.4g] (p̂=%.4g)",
					name, sigma, truth, r.CI.Lo, r.CI.Hi, r.FailProb)
			}
			if r.RelHalfWidth > 0.01 {
				t.Errorf("%s at %gσ: rel half-width %.4g > contract 0.01", name, sigma, r.RelHalfWidth)
			}
			if r.ESS <= 0 || r.ESS > float64(r.Samples) {
				t.Errorf("%s at %gσ: ESS %.1f outside (0, %d]", name, sigma, r.ESS, r.Samples)
			}
		}
	}
}

// TestOracleGaussianTailMC: plain MC agrees with the oracle where it can
// afford to (2σ), pinning the unweighted path of the shared loop.
func TestOracleGaussianTailMC(t *testing.T) {
	const sigma = 2.0
	truth := stats.StdNormCDF(-sigma)
	est, _ := New("mc")
	r, err := est.Estimate(context.Background(), gaussianSpec(sigma), Contract{RelErr: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("mc at 2σ not converged after %d samples", r.Samples)
	}
	if truth < r.CI.Lo || truth > r.CI.Hi {
		t.Errorf("mc at 2σ: closed-form %.4g outside CI [%.4g, %.4g]", truth, r.CI.Lo, r.CI.Hi)
	}
	if got := math.Round(r.ESS); got != float64(r.Samples-r.SearchEvals) {
		t.Errorf("plain-MC ESS %.1f, want the sample count %d", r.ESS, r.Samples)
	}
}

// arcSpec is the 6-dimensional process-space problem the engine serves:
// an INV delay arc at one grid point, thresholded at the golden μ+kσ.
func arcSpec(t testing.TB, sigma float64) Spec {
	return arcSpecAt(t, "INV", 0.02, 0.008, sigma)
}

// arcSpecAt is arcSpec for the first arc of any cell at any grid point.
func arcSpecAt(t testing.TB, cell string, slew, load, sigma float64) Spec {
	t.Helper()
	ct, ok := cells.CellByName(cell)
	if !ok {
		t.Fatalf("no %s cell", cell)
	}
	arc := ct.Arcs()[0]
	corner := spice.TTCorner()
	// Golden moments from a moderate MC pass set the threshold.
	res := arc.Elec.Characterize(corner, mc.NewRNG(0xfeed), 20000, slew, load)
	var mean, m2 float64
	for i, d := range res.Delays {
		delta := d - mean
		mean += delta / float64(i+1)
		m2 += delta * (d - mean)
	}
	std := math.Sqrt(m2 / float64(len(res.Delays)-1))
	return FromArc(arc.Elec, corner, MetricDelay, slew, load, mean+sigma*std)
}

// TestProcessSpaceCrossCheck: on the real 6-dim electrical model, MNIS
// and AIS at 3σ must agree with a plain-MC reference — their CIs overlap.
func TestProcessSpaceCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-check needs a plain-MC reference run")
	}
	spec := arcSpec(t, 3)
	mcEst, _ := New("mc")
	ref, err := mcEst.Estimate(context.Background(), spec, Contract{RelErr: 0.05, MaxSamples: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Failures < 50 {
		t.Fatalf("reference MC saw only %d failures", ref.Failures)
	}
	for _, name := range []string{"mnis", "ais"} {
		est, _ := New(name)
		r, err := est.Estimate(context.Background(), spec, Contract{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.Converged {
			t.Errorf("%s: not converged (%d samples, rel %.3g)", name, r.Samples, r.RelHalfWidth)
		}
		if r.CI.Hi < ref.CI.Lo || r.CI.Lo > ref.CI.Hi {
			t.Errorf("%s CI [%.4g, %.4g] disjoint from MC reference [%.4g, %.4g]",
				name, r.CI.Lo, r.CI.Hi, ref.CI.Lo, ref.CI.Hi)
		}
		if r.Samples >= ref.Samples {
			t.Errorf("%s spent %d samples, more than the plain-MC reference's %d", name, r.Samples, ref.Samples)
		}
	}
}

// TestYieldEstimatorDeterminism: seeded estimators are bit-identical
// across repeated runs and across concurrent runs (the CI target runs
// this under -race -cpu 1,4,8).
func TestYieldEstimatorDeterminism(t *testing.T) {
	sigma := 4.0
	contract := Contract{MaxSamples: 1 << 18}
	spec := arcSpec(t, sigma)
	latent := gaussianSpec(sigma)
	for _, name := range []string{"mc", "mnis", "ais"} {
		est, _ := New(name)
		run := func(s Spec) Result {
			r, err := est.Estimate(context.Background(), s, contract)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return r
		}
		golden := run(spec)
		goldenLatent := run(latent)
		const workers = 4
		results := make([]Result, workers)
		latents := make([]Result, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = run(spec)
				latents[i] = run(latent)
			}(i)
		}
		wg.Wait()
		for i := 0; i < workers; i++ {
			if !reflect.DeepEqual(results[i], golden) {
				t.Errorf("%s: concurrent run %d differs from golden", name, i)
			}
			if !reflect.DeepEqual(latents[i], goldenLatent) {
				t.Errorf("%s: concurrent latent run %d differs from golden", name, i)
			}
		}
	}
}

// TestNoFailureRegion: a spec that never fails makes the IS estimators
// return ErrNoFailureRegion (the server's degraded-mode trigger), while
// plain MC answers with a zero-failure bound.
func TestNoFailureRegion(t *testing.T) {
	spec := Spec{Dim: 2, Threshold: 1, Eval: func([]float64) float64 { return 0 }}
	for _, name := range []string{"mnis", "ais"} {
		est, _ := New(name)
		_, err := est.Estimate(context.Background(), spec, Contract{MaxSamples: 1 << 14})
		if !errors.Is(err, ErrNoFailureRegion) {
			t.Errorf("%s: err = %v, want ErrNoFailureRegion", name, err)
		}
	}
	mcEst, _ := New("mc")
	r, err := mcEst.Estimate(context.Background(), spec, Contract{MaxSamples: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged || r.Failures != 0 || r.FailProb != 0 {
		t.Errorf("zero-failure MC: %+v", r)
	}
	if !math.IsInf(r.RelHalfWidth, 1) {
		t.Errorf("zero-failure rel half-width = %v, want +Inf", r.RelHalfWidth)
	}
	// Rule-of-three bound: ~3/n at 95%.
	if hi := r.CI.Hi; hi <= 0 || hi > 5.0/float64(r.Samples) {
		t.Errorf("zero-failure CI upper bound %.3g implausible for n=%d", hi, r.Samples)
	}
}

// TestBudgetAndDeadline: the sample budget is a hard cap, and a dead
// context stops sampling between batches with a partial, non-converged
// result instead of an error.
func TestBudgetAndDeadline(t *testing.T) {
	spec := gaussianSpec(6)
	mcEst, _ := New("mc")
	r, err := mcEst.Estimate(context.Background(), spec, Contract{MaxSamples: 10000, Batch: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged {
		t.Error("10k plain-MC samples cannot close a ±1% contract at 6σ")
	}
	if r.Samples > 10000 {
		t.Errorf("budget overrun: %d samples > 10000", r.Samples)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err = mcEst.Estimate(ctx, spec, Contract{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged || r.Samples != 0 {
		t.Errorf("cancelled-context estimate ran: %+v", r)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	slow := Spec{Dim: 1, Threshold: 4, Eval: func(x []float64) float64 {
		time.Sleep(10 * time.Microsecond)
		return x[0]
	}}
	r, err = mcEst.Estimate(ctx2, slow, Contract{Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged {
		t.Error("deadline-cut estimate claims convergence")
	}
}

// TestProjectedSamples: a converged run projects its own spend; a
// partial run extrapolates 1/ε² scaling.
func TestProjectedSamples(t *testing.T) {
	spec := gaussianSpec(3)
	mcEst, _ := New("mc")
	full, err := mcEst.Estimate(context.Background(), spec, Contract{RelErr: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatalf("mc at 3σ with 5%% contract should converge (got %d samples)", full.Samples)
	}
	if got := ProjectedSamples(full, Contract{RelErr: 0.05}); got != float64(full.Samples) {
		t.Errorf("converged projection %.0f, want actual spend %d", got, full.Samples)
	}
	partial, err := mcEst.Estimate(context.Background(), spec, Contract{MaxSamples: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	proj := ProjectedSamples(partial, Contract{})
	// Analytic requirement: (z/ε)²(1−p)/p ≈ 2.8e7 at 3σ.
	want := math.Pow(ZScore(0.95)/0.01, 2) * (1 - stats.StdNormCDF(-3)) / stats.StdNormCDF(-3)
	if proj < want/3 || proj > want*3 {
		t.Errorf("projected MC samples %.3g, want within 3x of analytic %.3g", proj, want)
	}
}

// TestFromDistLatentThreshold: the latent threshold reproduces the
// model's own tail probability (the event is transported, not changed).
func TestFromDistLatentThreshold(t *testing.T) {
	d := stats.Normal{Mu: 5, Sigma: 2}
	for _, k := range []float64{1, 3, 4.5} {
		spec := FromDist(d, 5+k*2)
		if got := stats.StdNormCDF(-spec.Threshold); math.Abs(got-stats.StdNormCDF(-k)) > 1e-9*stats.StdNormCDF(-k) {
			t.Errorf("latent threshold at %gσ transports tail %.6g, want %.6g", k, got, stats.StdNormCDF(-k))
		}
	}
	// Saturated tails clamp instead of producing ±Inf thresholds.
	deep := FromDist(d, 5+12*2)
	if math.IsInf(deep.Threshold, 0) || deep.Threshold > 8.5 {
		t.Errorf("deep-tail latent threshold %v, want clamped finite", deep.Threshold)
	}
}
