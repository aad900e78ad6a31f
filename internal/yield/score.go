package yield

import (
	"math"
	"sync"

	"lvf2/internal/mc"
)

// minChunk is the smallest row range handed to one scoring worker, so
// the hand-off (a channel send and a goroutine wake-up, microseconds)
// stays small against the chunk's Φ⁻¹ transforms and evaluations (tens
// of microseconds even for the one-dimensional latent spec).
const minChunk = 512

// scorer is the score step of an estimate's batches. The caller draws a
// batch of LHS uniforms into m on its own goroutine, so the RNG stream
// is the serial one; score then maps the rows through Φ⁻¹, shifts them
// to the proposal centre and computes each row's likelihood ratio and
// failure indicator, spread over up to workers goroutines in contiguous
// row ranges. Every row is scored by the same arithmetic whichever
// worker takes it, and the caller folds w and fail in row order
// afterwards, so results are bit-identical to one goroutine scoring
// every row.
//
// The helper goroutines start in newScorer and exit in stop; a batch
// hands them row ranges over a channel and allocates nothing.
type scorer struct {
	spec    Spec
	workers int
	m       mc.Matrix // the batch's sample rows

	// Per-batch state, written by the caller before the hand-off and read
	// by the workers; w and fail are written by the worker owning a row.
	rows      [][]float64
	center    []float64 // proposal centre; nil scores the nominal N(0, I)
	halfNorm2 float64   // ‖center‖²/2
	w         []float64
	fail      []bool

	chunks  chan [2]int    // row ranges for the helpers
	pending sync.WaitGroup // chunks of the current batch not yet scored
	helpers sync.WaitGroup // helper goroutines not yet exited

	mu       sync.Mutex
	panicked any // first panic recovered from a worker in this batch
}

// scorerPool recycles the sample matrix and score buffers across
// estimates; the helper goroutines never outlive one.
var scorerPool = sync.Pool{New: func() any { return new(scorer) }}

// chunkCount is the number of workers that score n rows: at most workers,
// and every chunk at least minChunk rows.
func chunkCount(n, workers int) int {
	if most := n / minChunk; workers > most {
		workers = most
	}
	return max(workers, 1)
}

// newScorer starts a scorer for batches of at most batch rows over up to
// workers goroutines, the caller's included.
func newScorer(spec Spec, batch, workers int) *scorer {
	workers = chunkCount(batch, workers)
	s := scorerPool.Get().(*scorer)
	s.spec, s.workers = spec, workers
	if cap(s.w) < batch {
		s.w, s.fail = make([]float64, batch), make([]bool, batch)
	}
	if workers > 1 {
		// Sized to the chunks one batch hands out, so the caller never
		// blocks on the hand-off.
		s.chunks = make(chan [2]int, workers-1)
		s.helpers.Add(workers - 1)
		for i := 1; i < workers; i++ {
			go s.help()
		}
	}
	return s
}

func (s *scorer) help() {
	defer s.helpers.Done()
	for ch := range s.chunks {
		s.run(ch[0], ch[1])
		s.pending.Done()
	}
}

// stop ends the helper goroutines, waits for them and recycles the
// scorer. It must run before the estimate returns, panic paths
// included; the rows drawn into m are dead afterwards.
func (s *scorer) stop() {
	if s.chunks != nil {
		close(s.chunks)
		s.helpers.Wait()
		s.chunks = nil
	}
	s.spec, s.rows, s.center = Spec{}, nil, nil
	scorerPool.Put(s)
}

// score maps the uniform rows in place to proposal samples x = Φ⁻¹(u) + c
// and fills s.w[:len(rows)] and s.fail[:len(rows)]. It returns once every
// row is scored; a panic in any worker is re-raised here, on the
// caller's goroutine.
func (s *scorer) score(rows [][]float64, center []float64) {
	n := len(rows)
	s.rows, s.center, s.halfNorm2 = rows, center, 0
	for _, ci := range center {
		s.halfNorm2 += ci * ci / 2
	}
	k := chunkCount(n, s.workers)
	s.pending.Add(k - 1)
	for i := 1; i < k; i++ {
		s.chunks <- [2]int{i * n / k, (i + 1) * n / k}
	}
	s.run(0, n/k)
	s.pending.Wait()
	if v := s.panicked; v != nil {
		s.panicked = nil
		panic(v)
	}
}

// run scores rows [lo, hi), recording rather than propagating a panic so
// the batch can finish before the caller re-raises it.
func (s *scorer) run(lo, hi int) {
	defer func() {
		if v := recover(); v != nil {
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = v
			}
			s.mu.Unlock()
		}
	}()
	spec, center := s.spec, s.center
	for i, x := range mc.ToGaussian(s.rows[lo:hi]) {
		w := 1.0
		if center != nil {
			// x = z + c drawn from N(c, I); the likelihood ratio against
			// the nominal N(0, I) is φ(x)/φ(x−c) = exp(−z·c − ‖c‖²/2).
			var dot float64
			for j, cj := range center {
				z := x[j]
				dot += z * cj
				x[j] = z + cj
			}
			w = math.Exp(-dot - s.halfNorm2)
		}
		s.w[lo+i] = w
		s.fail[lo+i] = spec.Eval(x) > spec.Threshold
	}
}
