// Command libgen characterises the synthetic standard-cell library by
// Monte-Carlo simulation and emits a Liberty (.lib) file with classic LVF
// and, optionally, the paper's LVF² attributes.
//
// Fits run through the graceful-degradation ladder (LVF² → Norm² → LVF →
// Gaussian): a grid point whose requested fit fails validation is retried
// and then degraded instead of aborting the run. Every fallback is
// reported on stderr and recorded in the emitted library as an
// ocv_fallback_note_* attribute.
//
// With -checkpoint the run is resumable: every (arc, slew, load, kind)
// fit is journaled as it completes, SIGINT/SIGTERM flushes the journal
// before exiting, and -resume restores completed units instead of
// recomputing them — the resumed library is bit-identical to an
// uninterrupted run.
//
// With -serve the build is distributed: libgen becomes a lease-based
// coordinator over the checkpoint journal, handing work units to
// `libgen -worker` processes and assembling the library once every unit
// is journaled terminal. Workers need no configuration flags — they
// fetch the build spec at join time and refuse to run against a
// mismatched coordinator. See DESIGN.md §13.
//
// Usage:
//
//	libgen -cells INV,NAND2 -arcs 1 -samples 5000 -format lvf2 -o out.lib
//	libgen -cells all -arcs 2 -stride 4 -format lvf -timeout 5m -o classic.lib
//	libgen -cells all -checkpoint ckpt/ -o full.lib      # journaled run
//	libgen -cells all -checkpoint ckpt/ -resume -o full.lib
//	libgen -cells all -checkpoint ckpt/ -serve :9190 -o full.lib   # coordinator
//	libgen -worker -join http://host:9190                          # x N workers
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"

	"lvf2/internal/cells"
	"lvf2/internal/checkpoint"
	"lvf2/internal/dist"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
)

func main() {
	var (
		cellList = flag.String("cells", "INV,NAND2", `comma-separated cell types, or "all"`)
		arcs     = flag.Int("arcs", 1, "arcs to characterise per cell type")
		samples  = flag.Int("samples", 4000, "MC samples per distribution")
		stride   = flag.Int("stride", 1, "grid stride (1 = full 8x8)")
		format   = flag.String("format", "lvf2", "output format: lvf | lvf2")
		cold     = flag.Bool("cold", false, "disable warm-start seeding (every fit multi-starts from scratch)")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		timeout  = flag.Duration("timeout", 0, "overall wall-clock budget, e.g. 5m (0 = unlimited)")
		ckptDir  = flag.String("checkpoint", "", "journal directory for resumable runs (empty = no journal)")
		resume   = flag.Bool("resume", false, "resume from the -checkpoint journal instead of starting fresh")
		serve    = flag.String("serve", "", "run as distribution coordinator on this address (requires -checkpoint)")
		worker   = flag.Bool("worker", false, "run as a characterisation worker (requires -join; build flags are ignored)")
		join     = flag.String("join", "", "coordinator URL a -worker should join, e.g. http://host:9190")
		workerID = flag.String("id", "", "worker identity (default hostname-pid)")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	if *format != "lvf" && *format != "lvf2" {
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	if *resume && *ckptDir == "" {
		fatal(errors.New("-resume requires -checkpoint"))
	}
	if *serve != "" && *ckptDir == "" {
		fatal(errors.New("-serve requires -checkpoint: the journal is the coordinator's only durable state"))
	}
	if *serve != "" && *worker {
		fatal(errors.New("-serve and -worker are mutually exclusive"))
	}
	if *worker && *join == "" {
		fatal(errors.New("-worker requires -join"))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, trap := checkpoint.TrapSignals(ctx, os.Interrupt, syscall.SIGTERM)
	defer trap.Stop()

	if *worker {
		runWorker(ctx, trap, *join, *workerID)
		return
	}

	var types []cells.CellType
	if *cellList == "all" {
		types = cells.Library()
	} else {
		for _, name := range strings.Split(*cellList, ",") {
			ct, ok := cells.CellByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown cell %q", name))
			}
			types = append(types, ct)
		}
	}

	cfg := libbuild.Config{
		Types:     types,
		ArcsPer:   *arcs,
		Char:      cells.CharConfig{Samples: *samples, Seed: *seed, GridStride: *stride},
		LVF2:      *format == "lvf2",
		ColdStart: *cold,
		Log:       os.Stderr,
	}
	if *ckptDir != "" {
		cfg.Journal = openJournal(*ckptDir, cfg.Fingerprint(), *resume)
		defer cfg.Journal.Close()
	}

	if *serve != "" {
		// Coordinator mode: distribute the units, then fall through to
		// libbuild.Build below — with every unit journaled terminal it is
		// a pure restore-and-assemble pass, so the emitted library is the
		// same bytes a single-process run would produce.
		if err := serveCoordinator(ctx, cfg, *serve); err != nil {
			if sig := trap.Signal(); sig != nil {
				interruptedExit(cfg.Journal, *ckptDir, sig)
			}
			fatal(err)
		}
	}

	lib, stats, err := libbuild.Build(ctx, cfg)
	if sig := trap.Signal(); sig != nil {
		interruptedExit(cfg.Journal, *ckptDir, sig)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		hint := "raise -timeout or -stride"
		if *ckptDir != "" {
			hint = "rerun with -resume to continue where this run stopped"
		}
		fatal(fmt.Errorf("timed out after %v (%s)", *timeout, hint))
	}
	if err != nil {
		fatal(err)
	}
	if stats.Restored > 0 {
		fmt.Fprintf(os.Stderr, "libgen: resumed: %d/%d units restored from the journal\n", stats.Restored, stats.Units)
	}
	if stats.WarmHits+stats.WarmRejected > 0 {
		fmt.Fprintf(os.Stderr, "libgen: warm-start: %d seeded fit(s) accepted, %d rejected to cold\n", stats.WarmHits, stats.WarmRejected)
	}
	if stats.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "libgen: %d poison unit(s) quarantined (see ocv_fallback_note_* attributes)\n", stats.Quarantined)
	}
	if stats.Fallbacks > 0 {
		fmt.Fprintf(os.Stderr, "libgen: %d fit(s) fell back to a degraded model (see ocv_fallback_note_* attributes)\n", stats.Fallbacks)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := liberty.WriteLibrary(w, lib); err != nil {
		fatal(err)
	}
}

// interruptedExit is the SIGINT/SIGTERM path shared by the local,
// coordinator and assembly phases: flush and seal the journal, report
// how much progress survived, print the resume hint, exit 130.
func interruptedExit(j *checkpoint.Journal, ckptDir string, sig os.Signal) {
	j.Close()
	fmt.Fprintf(os.Stderr, "libgen: interrupted by %v; journal flushed (%d units sealed)\n", sig, len(j.Records()))
	if ckptDir != "" {
		fmt.Fprintf(os.Stderr, "libgen: resume with: libgen -checkpoint %s -resume (plus your original flags)\n", ckptDir)
	}
	os.Exit(130)
}

// serveCoordinator runs the lease-based coordinator until every unit is
// journaled terminal or ctx is cancelled (signal or -timeout). Progress
// is durable either way: a crashed or interrupted coordinator restarts
// from the journal alone.
func serveCoordinator(ctx context.Context, cfg libbuild.Config, addr string) error {
	coord, err := dist.NewCoordinator(dist.CoordinatorConfig{Build: cfg, Log: os.Stderr})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "libgen: coordinator on %s; join workers with: libgen -worker -join http://%s\n",
		ln.Addr(), ln.Addr())

	waitErr := coord.Wait(ctx)
	srv.Close()
	if waitErr != nil {
		return waitErr
	}
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	default:
	}
	fmt.Fprintf(os.Stderr, "libgen: distributed build drained; assembling library from the journal\n")
	return nil
}

// runWorker joins a coordinator and characterises leased units until the
// build drains or the worker is told to stop. A signalled worker exits
// 130 after abandoning its lease; the coordinator re-leases the units
// when the lease TTL lapses, so no progress is lost.
func runWorker(ctx context.Context, trap *checkpoint.SignalTrap, joinURL, id string) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	err := dist.RunWorker(ctx, dist.WorkerConfig{ID: id, URL: joinURL, Log: os.Stderr})
	if sig := trap.Signal(); sig != nil {
		fmt.Fprintf(os.Stderr, "libgen: worker %s interrupted by %v; lease abandoned (the coordinator re-leases it on expiry)\n", id, sig)
		fmt.Fprintf(os.Stderr, "libgen: rejoin with: libgen -worker -join %s\n", joinURL)
		os.Exit(130)
	}
	if errors.Is(err, dist.ErrSpecMismatch) {
		fatal(fmt.Errorf("%v (coordinator is running a different build configuration)", err))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "libgen: worker %s done: build drained\n", id)
}

// openJournal opens the checkpoint journal under the command-line policy
// of checkpoint.OpenRun and, on -resume, reports what it replayed.
func openJournal(dir string, fp checkpoint.Fingerprint, resume bool) *checkpoint.Journal {
	j, err := checkpoint.OpenRun(checkpoint.OSFS{}, dir, fp, resume, os.Stderr, "libgen")
	if err != nil {
		fatal(err)
	}
	if resume {
		st := j.Stats()
		fmt.Fprintf(os.Stderr, "libgen: journal replayed: %d resolved units, %d segments", st.Resolved, st.Segments)
		if st.TornRecords > 0 {
			fmt.Fprintf(os.Stderr, " (%d torn tail record(s) dropped)", st.TornRecords)
		}
		fmt.Fprintln(os.Stderr)
	}
	return j
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "libgen: %v\n", err)
	os.Exit(1)
}
