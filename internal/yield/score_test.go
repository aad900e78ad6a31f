package yield

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines waits until at most base goroutines run, failing the
// test after a generous bound. A goroutine that has returned from its
// function may still be counted for a moment while it unwinds.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the estimate, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// withProcs runs the test body with at least four Ps, so every estimate
// spreads its batches over helper goroutines whatever -cpu says.
func withProcs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

type evalPanic struct{ call int64 }

// TestEstimatePanicReachesCaller: an Eval that panics on its k-th call —
// in the failure-point search or in a scoring worker — makes Estimate
// panic on the caller's goroutine with the same value, where a recover
// (obs.Recover in the server) catches it, and no helper goroutine
// outlives the estimate.
func TestEstimatePanicReachesCaller(t *testing.T) {
	withProcs(t)
	base := runtime.NumGoroutine()
	for _, name := range Names {
		for _, k := range []int64{1, 9000, 20000} {
			for _, every := range []bool{false, true} {
				var calls atomic.Int64
				spec := gaussianSpec(3)
				inner := spec.Eval
				spec.Eval = func(x []float64) float64 {
					if n := calls.Add(1); n == k || (every && n > k) {
						panic(evalPanic{n})
					}
					return inner(x)
				}
				est, _ := New(name)
				v := func() (v any) {
					defer func() { v = recover() }()
					est.Estimate(context.Background(), spec, Contract{RelErr: 0.001, MaxSamples: 1 << 16})
					return nil
				}()
				p, ok := v.(evalPanic)
				if !ok || p.call < k || (!every && p.call != k) {
					t.Fatalf("%s, panic at call %d (every=%v): recovered %#v", name, k, every, v)
				}
				waitGoroutines(t, base)
			}
		}
	}
}

// TestEstimateLeavesNoGoroutines: the scoring helpers exit before
// Estimate returns, whether the contract closes, the budget runs out,
// the context is cancelled mid-estimate or its deadline expires.
func TestEstimateLeavesNoGoroutines(t *testing.T) {
	withProcs(t)
	base := runtime.NumGoroutine()
	spec := arcSpec(t, 4)
	for _, name := range Names {
		est, _ := New(name)

		if _, err := est.Estimate(context.Background(), spec, Contract{RelErr: 0.2, MaxSamples: 1 << 16}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		waitGoroutines(t, base)

		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		cancelling := spec
		cancelling.Eval = func(x []float64) float64 {
			if calls.Add(1) == 20000 {
				cancel()
			}
			return spec.Eval(x)
		}
		r, err := est.Estimate(ctx, cancelling, Contract{})
		cancel()
		if err != nil {
			t.Fatalf("%s cancelled: %v", name, err)
		}
		if r.Converged || r.Samples >= 1<<22 {
			t.Fatalf("%s cancelled mid-estimate: %+v", name, r)
		}
		waitGoroutines(t, base)

		ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		slow := spec
		slow.Eval = func(x []float64) float64 {
			time.Sleep(time.Microsecond)
			return spec.Eval(x)
		}
		r, err = est.Estimate(ctx, slow, Contract{Batch: 1024})
		cancel()
		if err != nil {
			t.Fatalf("%s deadline: %v", name, err)
		}
		if r.Converged {
			t.Fatalf("%s: deadline-cut estimate claims convergence", name)
		}
		waitGoroutines(t, base)
	}
}
