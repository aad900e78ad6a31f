package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"lvf2/internal/binning"
	"lvf2/internal/core"
	"lvf2/internal/fit"
	"lvf2/internal/liberty"
	"lvf2/internal/netlist"
	"lvf2/internal/sta"
	"lvf2/internal/stats"
)

// Response shapes the replays compare against (the daemon's JSON).
type thetaJSON struct {
	Mean, Sigma, Skew float64
}

type modelJSON struct {
	Kind   string     `json:"kind"`
	Lambda float64    `json:"lambda"`
	Theta1 thetaJSON  `json:"theta1"`
	Theta2 *thetaJSON `json:"theta2"`
}

type binningJSON struct {
	Model         modelJSON `json:"model"`
	Mean          float64   `json:"mean"`
	Std           float64   `json:"std"`
	Boundaries    []float64 `json:"boundaries"`
	Probabilities []float64 `json:"probabilities"`
	Yield3Sigma   float64   `json:"yield_3sigma"`
}

type cdfJSON struct {
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Points []struct {
		X, CDF, PDF float64
	} `json:"points"`
}

type sstaJSON struct {
	Arrivals map[string]struct {
		Nominal  float64 `json:"nominal"`
		Families map[string]struct {
			Mean  float64 `json:"mean"`
			Std   float64 `json:"std"`
			Q9987 float64 `json:"q99_87"`
		} `json:"families"`
	} `json:"arrivals"`
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sstaMatches reports whether an SSTA response carries exactly the
// output arrivals of res.
func sstaMatches(body []byte, res *sta.Result, mod *netlist.Module) error {
	var got sstaJSON
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	for _, out := range mod.Outputs() {
		a, ok := res.Arrivals[out]
		g, gok := got.Arrivals[out]
		if !ok || !gok {
			return fmt.Errorf("output %s missing", out)
		}
		if g.Nominal != a.Nominal {
			return fmt.Errorf("output %s nominal %v, replay %v", out, g.Nominal, a.Nominal)
		}
		for fam, v := range a.Vars {
			d := v.Dist()
			f, ok := g.Families[fam.String()]
			if !ok {
				return fmt.Errorf("output %s family %v missing", out, fam)
			}
			if f.Mean != d.Mean() || f.Std != math.Sqrt(d.Variance()) || f.Q9987 != stats.Quantile(d, 0.9987) {
				return fmt.Errorf("output %s family %v moments differ from the replay", out, fam)
			}
		}
	}
	return nil
}

func chainModule(cell string) *netlist.Module { return netlist.Chain("chain", cell, 8) }

var bothFamilies = []fit.Model{fit.ModelLVF, fit.ModelLVF2}

// replayServe replays the evaluation layers of the hot path on the
// cached models: binning (SigmaBoundaries + DistProbabilities +
// Yield3Sigma), the 21-point CDF/PDF and the chain SSTA. Each replay
// must reproduce the reference answer exactly.
func replayServe(sys *system, lib *liberty.Library, reqs []*request, tr *tracer, out *outcome) error {
	type keyed struct {
		r *request
		m core.Model
	}
	var bins, cdfs []keyed
	for _, r := range reqs {
		if r.class != "binning" && r.class != "cdf" {
			continue
		}
		key := modelKey(sys, r)
		var m core.Model
		found := false
		for _, rep := range sys.replicas {
			if m, found = rep.srv.Cache().Peek(key); found {
				break
			}
		}
		if !found {
			out.problem("replay: %s is not resident in any model cache", r.label())
			continue
		}
		if r.class == "binning" {
			bins = append(bins, keyed{r, m})
		} else {
			cdfs = append(cdfs, keyed{r, m})
		}
	}
	tr.on.Store(true)
	defer tr.on.Store(false)

	evalBinning := func(m core.Model) (mean, std float64, bounds, probs []float64, y float64) {
		d := m.Dist()
		mean, std = d.Mean(), stats.Std(d)
		bounds = binning.SigmaBoundaries(mean, std)
		probs = binning.DistProbabilities(d, bounds)
		return mean, std, bounds, probs, binning.Yield3Sigma(d.CDF, mean, std)
	}
	for _, k := range bins {
		var ref binningJSON
		if err := json.Unmarshal(k.r.ref, &ref); err != nil {
			return err
		}
		mean, std, bounds, probs, y := evalBinning(k.m)
		if mean != ref.Mean || std != ref.Std || !sameFloats(bounds, ref.Boundaries) || !sameFloats(probs, ref.Probabilities) || y != ref.Yield3Sigma {
			out.problem("replay fidelity: binning of %s differs from the daemon's answer", k.r.label())
		}
	}
	const reps = 20
	if len(bins) > 0 {
		id, t0 := tr.begin()
		for i := 0; i < reps; i++ {
			for _, k := range bins {
				evalBinning(k.m)
			}
		}
		d := time.Since(t0)
		tr.end(id, 0, 0, "replay.binning.eval", "", t0)
		out.layer["binning.eval_us"] = float64(d.Microseconds()) / float64(reps*len(bins))
	}

	evalCDF := func(m core.Model, n int) (mean, std float64, xs, cdf, pdf []float64) {
		d := m.Dist()
		mean, std = d.Mean(), stats.Std(d)
		xs, cdf, pdf = make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = mean - 4*std + 8*std*float64(i)/float64(n-1)
			cdf[i], pdf[i] = d.CDF(xs[i]), d.PDF(xs[i])
		}
		return
	}
	for _, k := range cdfs {
		var ref cdfJSON
		if err := json.Unmarshal(k.r.ref, &ref); err != nil {
			return err
		}
		mean, std, xs, cdf, pdf := evalCDF(k.m, 21)
		same := mean == ref.Mean && std == ref.Std && len(ref.Points) == len(xs)
		for i := 0; same && i < len(xs); i++ {
			p := ref.Points[i]
			same = p.X == xs[i] && p.CDF == cdf[i] && p.PDF == pdf[i]
		}
		if !same {
			out.problem("replay fidelity: CDF of %s differs from the daemon's answer", k.r.label())
		}
	}
	if len(cdfs) > 0 {
		id, t0 := tr.begin()
		for i := 0; i < reps; i++ {
			for _, k := range cdfs {
				evalCDF(k.m, 21)
			}
		}
		d := time.Since(t0)
		tr.end(id, 0, 0, "replay.stats.cdf21", "", t0)
		out.layer["stats.cdf21_us"] = float64(d.Microseconds()) / float64(reps*len(cdfs))
	}

	var chainMS []float64
	for _, r := range reqs {
		if r.class != "chain" {
			continue
		}
		mod := chainModule(r.netCell)
		id, t0 := tr.begin()
		res, err := sta.Run(lib, mod, sta.Options{InputSlew: 0.01, Families: bothFamilies})
		tr.end(id, 0, 0, "replay.sta.Run", "chain "+r.netCell, t0)
		if err != nil {
			return err
		}
		chainMS = append(chainMS, ms(time.Since(t0)))
		if err := sstaMatches(r.ref, res, mod); err != nil {
			out.problem("replay fidelity: %s: %v", r.label(), err)
		}
	}
	out.layer["sta.run_ms.chain"] = mean(chainMS)
	out.reportf("hot-path replays: %d binning, %d cdf, %d chain answers reproduced", len(bins), len(cdfs), len(chainMS))
	return nil
}
