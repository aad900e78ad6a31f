// Command exptables regenerates the tables and figures of the LVF² paper
// (DAC 2024) on the synthetic substrate and prints them as text/CSV.
//
// Usage:
//
//	exptables -exp table1            # five-scenario assessment (Table 1)
//	exptables -exp table2 -arcs 2    # standard-cell library sweep (Table 2)
//	exptables -exp fig3  > fig3.csv  # fitted PDF curves (Fig. 3)
//	exptables -exp fig4              # slew-load accuracy pattern (Fig. 4)
//	exptables -exp fig5              # path SSTA study (Fig. 5, both paths)
//	exptables -exp yield             # rare-event yield vs sigma (estimator ladder)
//	exptables -exp all -samples 50000 -arcs 0 -stride 1   # paper scale
//
// With -checkpoint the table1/fig3/table2 drivers journal every work
// unit; an interrupted run (SIGINT/SIGTERM, OOM kill) resumes with
// -resume instead of restarting. Table 1 and Table 2 keep separate
// journals in subdirectories of the checkpoint dir.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"lvf2/internal/checkpoint"
	"lvf2/internal/circuits"
	"lvf2/internal/experiments"
	"lvf2/internal/fit"
	"lvf2/internal/spice"
	"lvf2/internal/yield"
)

// openJournal opens one experiment's checkpoint journal under the
// command-line policy of checkpoint.OpenRun and, on -resume, reports
// what it replayed.
func openJournal(dir string, fp checkpoint.Fingerprint, resume bool) (*checkpoint.Journal, error) {
	j, err := checkpoint.OpenRun(checkpoint.OSFS{}, dir, fp, resume, os.Stderr, "exptables")
	if err != nil {
		return nil, err
	}
	if resume {
		st := j.Stats()
		fmt.Fprintf(os.Stderr, "exptables: journal %s replayed: %d resolved units, %d segments\n", dir, st.Resolved, st.Segments)
	}
	return j, nil
}

// writeSVG stores one figure under dir.
func writeSVG(dir, name, svg string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name+".svg", []byte(svg), 0o644)
}

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|fig3|fig4|fig5|clt|vsweep|yield|all")
		samples = flag.Int("samples", 0, "MC samples per distribution (0 = reduced default; paper uses 50000)")
		seed    = flag.Uint64("seed", 0, "base RNG seed (0 = default)")
		arcs    = flag.Int("arcs", 2, "arcs per cell type for table2 (0 = all arcs, paper scale)")
		stride  = flag.Int("stride", 4, "slew-load grid stride for table2 (1 = full 8x8 grid)")
		polish  = flag.Bool("polish", false, "enable the Nelder-Mead MLE polish after EM")
		ext     = flag.Bool("extended", false, "add the LN/LSN prior-work models to table1")
		repeats = flag.Int("repeats", 1, "seed-average count for fig5 reductions")
		svgDir  = flag.String("svg", "", "also write figures as SVG files into this directory")
		ckptDir = flag.String("checkpoint", "", "journal directory for resumable table1/table2 runs (empty = no journal)")
		resume  = flag.Bool("resume", false, "resume from the -checkpoint journal instead of starting fresh")
	)
	flag.Parse()
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "exptables: -resume requires -checkpoint")
		os.Exit(1)
	}

	cfg := experiments.Config{Samples: *samples, Seed: *seed, Repeats: *repeats}
	cfg.FitOpts.Polish = *polish
	if *ext {
		cfg.Models = fit.ExtendedModels
	}

	ctx, trap := checkpoint.TrapSignals(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer trap.Stop()

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		err := f()
		if sig := trap.Signal(); sig != nil {
			fmt.Fprintf(os.Stderr, "exptables: %s interrupted by %v; journal flushed\n", name, sig)
			if *ckptDir != "" {
				fmt.Fprintf(os.Stderr, "exptables: resume with: exptables -exp %s -checkpoint %s -resume (plus your original flags)\n", name, *ckptDir)
			}
			os.Exit(130)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "exptables: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	// withJournal opens the sub-journal for one driver (table1 and table2
	// have different unit shapes, so they get separate segments and
	// fingerprints) and closes — sealing — it after the driver returns.
	withJournal := func(sub string, fp checkpoint.Fingerprint, f func(j *checkpoint.Journal) error) error {
		if *ckptDir == "" {
			return f(nil)
		}
		j, err := openJournal(filepath.Join(*ckptDir, sub), fp, *resume)
		if err != nil {
			return err
		}
		defer j.Close()
		return f(j)
	}

	table1 := func(f func(rows []experiments.ScenarioResult) error) error {
		return withJournal("table1", cfg.Table1Fingerprint(), func(j *checkpoint.Journal) error {
			c := cfg
			c.Checkpoint = j
			rows, err := experiments.Table1Ctx(ctx, c)
			if err != nil {
				return err
			}
			return f(rows)
		})
	}
	run("table1", func() error {
		return table1(func(rows []experiments.ScenarioResult) error {
			fmt.Print(experiments.RenderTable1(rows))
			fmt.Println()
			return nil
		})
	})
	run("fig3", func() error {
		return table1(func(rows []experiments.ScenarioResult) error {
			fmt.Print(experiments.Fig3CSV(rows, 200))
			for _, r := range rows {
				if r.Restored {
					fmt.Fprintf(os.Stderr, "exptables: fig3: scenario %q restored from the journal; no curves to plot (rerun without -checkpoint for figures)\n", r.Scenario.Name)
				}
			}
			if *svgDir != "" {
				for slug, svg := range experiments.Fig3SVGs(rows, 240) {
					if err := writeSVG(*svgDir, "fig3_"+slug, svg); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	run("table2", func() error {
		t2 := experiments.Table2Config{Config: cfg, ArcsPerType: *arcs, GridStride: *stride}
		if *arcs == 0 {
			t2.ArcsPerType = -1 // all arcs
		}
		return withJournal("table2", t2.Table2Fingerprint(), func(j *checkpoint.Journal) error {
			t2.Checkpoint = j
			rows, err := experiments.Table2Ctx(ctx, t2)
			if err != nil {
				return err
			}
			experiments.SortRowsLikePaper(rows)
			fmt.Print(experiments.RenderTable2(rows))
			fmt.Println()
			return nil
		})
	})
	run("fig4", func() error {
		res, err := experiments.Fig4(experiments.Fig4Config{Config: cfg})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderFig4(res))
		fmt.Printf("diagonal pattern score: delay %.2f, transition %.2f (positive = diagonal regularity present)\n\n",
			experiments.DiagonalScore(res.DelayRed), experiments.DiagonalScore(res.TransRed))
		if *svgDir != "" {
			d, tr := experiments.Fig4SVGs(res)
			if err := writeSVG(*svgDir, "fig4_delay", d); err != nil {
				return err
			}
			if err := writeSVG(*svgDir, "fig4_transition", tr); err != nil {
				return err
			}
		}
		return nil
	})
	run("yield", func() error {
		res, err := experiments.YieldVsSigma(ctx, cfg, nil, yield.Contract{})
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderYieldTable(res))
		fmt.Println()
		return nil
	})
	run("vsweep", func() error {
		res, err := experiments.VSweep(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderVSweep(res))
		fmt.Println()
		return nil
	})
	run("clt", func() error {
		res, err := experiments.CLT(cfg, 16, spice.TTCorner())
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderCLT(res))
		fmt.Println()
		return nil
	})
	run("fig5", func() error {
		corner := spice.TTCorner()
		for _, path := range []circuits.Path{
			circuits.CarryAdder16(corner),
			circuits.HTree6(corner),
		} {
			res, err := experiments.Fig5(cfg, path, corner)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RenderFig5(res))
			fmt.Println()
			if *svgDir != "" {
				if err := writeSVG(*svgDir, "fig5_"+path.Name, experiments.Fig5SVG(res)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
