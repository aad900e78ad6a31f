package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"lvf2/internal/checkpoint"
	"lvf2/internal/libbuild"
)

// UnitExecutor computes work-unit payloads for a worker. The production
// implementation is libbuild.Executor; tests and benchmarks wrap it to
// inject faults or a simulated compute floor.
type UnitExecutor interface {
	Execute(ctx context.Context, k checkpoint.Key) ([]byte, error)
	Salvage(ctx context.Context, k checkpoint.Key) (payload []byte, rung string, err error)
}

// WorkerConfig tunes one worker process (or goroutine).
type WorkerConfig struct {
	// ID names the worker to the coordinator (required, unique per
	// worker).
	ID string
	// URL is the coordinator base URL, e.g. "http://host:9090".
	URL string
	// Client issues the protocol requests (default http.DefaultClient).
	// The chaos suite installs a fault-injecting transport here.
	Client *http.Client
	// NewExecutor builds the unit executor for the joined build
	// (default libbuild.NewExecutor). The scaling benchmark wraps the
	// real executor with a simulated per-unit compute floor.
	NewExecutor func(libbuild.Config) (UnitExecutor, error)
	// Backoff is the base retry delay for failed protocol requests
	// (default 100ms, capped at 16x).
	Backoff time.Duration
	// Log receives worker events (default: discarded).
	Log io.Writer
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.NewExecutor == nil {
		c.NewExecutor = func(cfg libbuild.Config) (UnitExecutor, error) {
			return libbuild.NewExecutor(cfg)
		}
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	return c
}

// errLeaseLost signals the heartbeat loop observed the coordinator
// disowning the lease: abandon the in-flight work, lease again.
var errLeaseLost = errors.New("dist: lease lost")

// worker is the run state of one worker loop.
type worker struct {
	cfg  WorkerConfig
	exec UnitExecutor
	fp   uint64
	ttl  time.Duration
	hb   time.Duration
}

// RunWorker joins the coordinator at cfg.URL and processes leases until
// the build completes (nil), the context is cancelled (ctx.Err()), or
// the worker discovers it cannot participate — wrong fingerprint, a
// build spec it cannot reconstruct (error).
//
// Transient protocol failures (connection errors, dropped or corrupt
// responses, 5xx) are retried with exponential backoff; a submission
// whose response was lost is simply retried, which the coordinator
// deduplicates. Losing the lease (heartbeat rejected, or heartbeats
// failing for longer than the TTL) abandons the in-flight unit — the
// coordinator has re-leased it — without submitting.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	cfg = cfg.withDefaults()
	w := &worker{cfg: cfg}
	if err := w.join(ctx); err != nil {
		return err
	}
	for {
		var lr LeaseResponse
		if err := w.post(ctx, PathLease, LeaseRequest{Worker: cfg.ID}, &lr); err != nil {
			return err
		}
		switch {
		case lr.Done:
			fmt.Fprintf(cfg.Log, "dist: worker %s: build complete\n", cfg.ID)
			return nil
		case lr.Lease == nil:
			wait := time.Duration(lr.WaitMs) * time.Millisecond
			if wait <= 0 {
				wait = 100 * time.Millisecond
			}
			if err := sleep(ctx, wait); err != nil {
				return err
			}
		default:
			done, err := w.runLease(ctx, lr.Lease)
			if done || err != nil {
				return err
			}
		}
	}
}

// join announces the worker and builds its executor, retrying until the
// coordinator answers or ctx dies.
func (w *worker) join(ctx context.Context) error {
	var jr JoinResponse
	if err := w.post(ctx, PathJoin, JoinRequest{Worker: w.cfg.ID}, &jr); err != nil {
		return err
	}
	bcfg, err := jr.Spec.Config()
	if err != nil {
		return err
	}
	if got := bcfg.Fingerprint().Hash(); got != jr.Fingerprint {
		return fmt.Errorf("%w: reconstructed spec hashes to %x, coordinator build is %x "+
			"(mismatched binaries or synthetic library)", ErrSpecMismatch, got, jr.Fingerprint)
	}
	exec, err := w.cfg.NewExecutor(bcfg)
	if err != nil {
		return err
	}
	w.exec = exec
	w.fp = jr.Fingerprint
	w.ttl = time.Duration(jr.LeaseTTLMs) * time.Millisecond
	if w.ttl <= 0 {
		w.ttl = 10 * time.Second
	}
	w.hb = time.Duration(jr.HeartbeatMs) * time.Millisecond
	if w.hb <= 0 {
		w.hb = w.ttl / 3
	}
	fmt.Fprintf(w.cfg.Log, "dist: worker %s joined (ttl=%v heartbeat=%v)\n", w.cfg.ID, w.ttl, w.hb)
	return nil
}

// runLease executes every unit of one lease under a heartbeat. It
// returns done=true when a completion response reports the build
// finished.
func (w *worker) runLease(ctx context.Context, l *Lease) (done bool, err error) {
	// The lease context dies with the lease: heartbeat rejection or a
	// renewal outage longer than the TTL cancels the in-flight unit, the
	// distributed twin of checkpoint's cancellation-is-not-a-unit-fault
	// rule — nothing is journaled for the unit and the coordinator
	// re-leases it.
	lctx, cancel := context.WithCancelCause(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeat(lctx, l.ID, cancel)
	}()
	defer wg.Wait()
	defer cancel(nil)

	for _, k := range l.Keys {
		req := CompleteRequest{Worker: w.cfg.ID, Fingerprint: w.fp, LeaseID: l.ID, Key: k}
		if l.Salvage {
			payload, rung, serr := w.exec.Salvage(lctx, k)
			if serr != nil {
				if lctx.Err() != nil {
					return false, w.leaseAborted(lctx, ctx, k)
				}
				// A salvage that cannot even run (unit off-plan) is a unit
				// fault; report it like any other.
				req.OK, req.Err = false, serr.Error()
			} else {
				req.OK, req.Payload, req.Rung, req.Err = true, payload, rung, l.LastErr
			}
		} else {
			payload, xerr := w.exec.Execute(lctx, k)
			if xerr != nil {
				if lctx.Err() != nil {
					return false, w.leaseAborted(lctx, ctx, k)
				}
				req.OK, req.Err = false, xerr.Error()
			} else {
				req.OK, req.Payload = true, payload
			}
		}
		var resp CompleteResponse
		if perr := w.post(lctx, PathComplete, req, &resp); perr != nil {
			if lctx.Err() != nil {
				return false, w.leaseAborted(lctx, ctx, k)
			}
			return false, perr
		}
		if resp.Duplicate {
			fmt.Fprintf(w.cfg.Log, "dist: worker %s: %s was already terminal (deduplicated)\n", w.cfg.ID, k)
		}
		if resp.Done {
			fmt.Fprintf(w.cfg.Log, "dist: worker %s: build complete\n", w.cfg.ID)
			return true, nil
		}
	}
	return false, nil
}

// leaseAborted resolves a cancelled lease context: a lost lease is a
// normal event (return to the lease loop), a cancelled worker context
// ends the worker.
func (w *worker) leaseAborted(lctx, ctx context.Context, k checkpoint.Key) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	fmt.Fprintf(w.cfg.Log, "dist: worker %s: lease lost mid-unit %s; abandoning (%v)\n",
		w.cfg.ID, k, context.Cause(lctx))
	return nil
}

// heartbeat renews the lease every interval. It cancels the lease
// context when the coordinator rejects a renewal or when renewals have
// failed for longer than the lease TTL (the lease has expired under
// us whether the coordinator said so or not).
func (w *worker) heartbeat(lctx context.Context, leaseID uint64, cancel context.CancelCauseFunc) {
	t := time.NewTicker(w.hb)
	defer t.Stop()
	lastOK := time.Now()
	for {
		select {
		case <-lctx.Done():
			return
		case <-t.C:
		}
		var hr HeartbeatResponse
		err := w.postOnce(lctx, PathHeartbeat, HeartbeatRequest{Worker: w.cfg.ID, LeaseID: leaseID}, &hr)
		switch {
		case err == nil && hr.OK:
			lastOK = time.Now()
			continue
		case err == nil:
			fmt.Fprintf(w.cfg.Log, "dist: worker %s: lease %d rejected by coordinator\n", w.cfg.ID, leaseID)
			cancel(errLeaseLost)
			return
		case time.Since(lastOK) > w.ttl:
			fmt.Fprintf(w.cfg.Log, "dist: worker %s: lease %d heartbeats dark for %v (> ttl)\n",
				w.cfg.ID, leaseID, time.Since(lastOK))
			cancel(errLeaseLost)
			return
		}
	}
}

// maxRequestTries bounds the per-request retry loop. With exponential
// backoff from WorkerConfig.Backoff this rides out coordinator restarts
// and injected network faults without spinning forever against a dead
// address.
const maxRequestTries = 10

// post issues one JSON request with retries. Connection errors, dropped
// and corrupt responses and 5xx answers retry with exponential backoff;
// 4xx answers (fingerprint conflict, malformed request) are permanent.
func (w *worker) post(ctx context.Context, path string, req, resp any) error {
	backoff := w.cfg.Backoff
	var last error
	for try := 0; try < maxRequestTries; try++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = w.postOnce(ctx, path, req, resp)
		if last == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(last, &pe) {
			return pe.err
		}
		fmt.Fprintf(w.cfg.Log, "dist: worker %s: %s try %d: %v\n", w.cfg.ID, path, try+1, last)
		if err := sleep(ctx, backoff); err != nil {
			return err
		}
		if backoff < 16*w.cfg.Backoff {
			backoff *= 2
		}
	}
	return fmt.Errorf("dist: worker %s: %s failed after %d tries: %w", w.cfg.ID, path, maxRequestTries, last)
}

// permanentError wraps a failure retrying cannot fix.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }

// postOnce issues one JSON request without retries.
func (w *worker) postOnce(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return &permanentError{err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		return &permanentError{err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := w.cfg.Client.Do(hreq)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	switch {
	case hresp.StatusCode == http.StatusConflict:
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return &permanentError{fmt.Errorf("%w: %s", ErrSpecMismatch, bytes.TrimSpace(msg))}
	case hresp.StatusCode >= 400 && hresp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return &permanentError{fmt.Errorf("dist: %s: %s: %s", path, hresp.Status, bytes.TrimSpace(msg))}
	case hresp.StatusCode != http.StatusOK:
		return fmt.Errorf("dist: %s: %s", path, hresp.Status)
	}
	// A corrupt or truncated body decodes as an error here and retries:
	// every request is idempotent from the coordinator's side.
	if err := json.NewDecoder(io.LimitReader(hresp.Body, 1<<20)).Decode(resp); err != nil {
		return fmt.Errorf("dist: %s: decoding response: %w", path, err)
	}
	return nil
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
