package fit

import (
	"slices"
	"sync"

	"lvf2/internal/opt"
	"lvf2/internal/stats"
)

// Workspace holds every scratch buffer one EM/ECM fit needs —
// responsibilities, complement weights, the sorted copy used by the
// initialisation splits, k-means assignments, the per-component MLE
// scratch (the weight-filtered subsample) and the multi-start result slots
// — so a steady-state FitLVF2Ws/fitNorm2 call performs no heap
// allocations. A Workspace is not safe for concurrent use, but the two
// mleScratch halves may be driven by two goroutines at once (the parallel
// ECM path does exactly that). The zero value is ready.
type Workspace struct {
	resp   []float64 // responsibility of component 2 per point
	w1s    []float64 // complement weights (1 − resp)
	sorted []float64 // sorted copy of the sample for quantile splits
	assign []int     // k-means cluster assignment per point

	inits   [maxStarts]lvf2Init   // multi-start seeds
	emRuns  [maxStarts]LVF2Result // per-start EM outcomes
	rawRuns [maxStarts]LVF2Result // per-start raw-init scores

	mle    [2]mleScratch // per-component weighted-MLE scratch
	nm7    opt.Workspace // 7-parameter polish simplex
	lesnNM opt.Workspace // 4-parameter LESN moment-match simplex
}

// grow resizes the per-point buffers for a sample of length n.
func (fw *Workspace) grow(n int) {
	if cap(fw.resp) < n {
		fw.resp = make([]float64, n)
		fw.w1s = make([]float64, n)
		fw.sorted = make([]float64, n)
		fw.assign = make([]int, n)
		return
	}
	fw.resp = fw.resp[:n]
	fw.w1s = fw.w1s[:n]
	fw.sorted = fw.sorted[:n]
	fw.assign = fw.assign[:n]
}

// wsPool recycles workspaces behind the public FitLVF2/FitNorm2Params
// entry points, giving callers that cannot thread a workspace themselves
// (the experiment pipelines fit thousands of distributions through the
// generic Fit dispatch) steady-state buffer reuse for free.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// snTerm is one weighted skew-normal mixture component with the
// per-distribution setup (1/ω, the combined weight·2/ω prefactor) hoisted
// out of the per-point loop, devirtualising what used to be a stats.Dist
// PDF call per sample.
type snTerm struct {
	xi, invOmega, alpha, scale float64
}

// makeSNTerm builds the hoisted form of weight·SN(c). A non-positive ω
// yields a zero term, matching SkewNormal.PDF.
func makeSNTerm(weight float64, c stats.SkewNormal) snTerm {
	if c.Omega <= 0 {
		return snTerm{xi: c.Xi}
	}
	inv := 1 / c.Omega
	return snTerm{xi: c.Xi, invOmega: inv, alpha: c.Alpha, scale: weight * 2 * inv}
}

func (t snTerm) pdf(x float64) float64 {
	z := (x - t.xi) * t.invOmega
	return t.scale * stats.StdNormPDF(z) * stats.StdNormCDF(t.alpha*z)
}

// kMeans2 is KMeans1D specialised to k=2 over pre-sorted data, writing
// assignments into assign (0 = lower-centre cluster) without allocating.
// It mirrors KMeans1D's quantile seeding, nearest-centre Lloyd iteration
// and ascending-centre renumbering.
func kMeans2(xs, sorted []float64, assign []int, maxIter int) (c0, c1 float64) {
	n := len(xs)
	c0 = sorted[int(0.25*float64(n-1))]
	c1 = sorted[int(0.75*float64(n-1))]
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		var n0, n1 int
		var s0, s1 float64
		for i, x := range xs {
			a := 0
			if absf(x-c1) < absf(x-c0) {
				a = 1
			}
			if assign[i] != a {
				assign[i] = a
				changed = true
			}
			if a == 0 {
				n0++
				s0 += x
			} else {
				n1++
				s1 += x
			}
		}
		if n0 > 0 {
			c0 = s0 / float64(n0)
		}
		if n1 > 0 {
			c1 = s1 / float64(n1)
		}
		if !changed && iter > 0 {
			break
		}
	}
	if c0 > c1 {
		c0, c1 = c1, c0
		for i := range assign {
			assign[i] = 1 - assign[i]
		}
	}
	return c0, c1
}

// sortInto copies xs into dst and sorts it ascending.
func sortInto(dst, xs []float64) []float64 {
	copy(dst, xs)
	slices.Sort(dst)
	return dst
}
