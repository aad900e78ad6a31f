package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"lvf2/internal/cells"
	"lvf2/internal/core"
	"lvf2/internal/fit"
	"lvf2/internal/libbuild"
	"lvf2/internal/liberty"
	"lvf2/internal/netlist"
	"lvf2/internal/spice"
	"lvf2/internal/sta"
	"lvf2/internal/stats"
	"lvf2/internal/yield"
)

// Daemon defaults the replays must match: the refit quantile-grid size
// and the estimator contract of GET /v1/yield.
const (
	fitSamples      = 2048
	yieldMaxSamples = 1 << 22
	yieldBatch      = 4096
)

var refitKinds = map[string]fit.Model{
	"norm2": fit.ModelNorm2, "lesn": fit.ModelLESN, "ln": fit.ModelLN,
	"lsn": fit.ModelLSN, "gaussian": fit.ModelGaussian,
}

var refitOrder = []string{"norm2", "lesn", "ln", "lsn", "gaussian"}

var analysisClasses = []string{"refit", "rca16", "estimate"}

// analysisList is the seeded heavy-request list, in rounds of the same
// make-up: two first-touch refits, one rca16 SSTA and one process-space
// estimate on every served arc. An arc's estimator and sigma (MNIS or
// AIS at 4σ or 5σ) rotate with the round, so every four rounds ask each
// arc all four and every round holds a like mix of cheap and costly
// estimates. Rounds are sized so each class takes between a quarter and
// a half of handler time; the traced run reports the measured shares
// (server.handler_share.*). Which arcs and kinds a round uses follows a
// fixed cycle, so every seed sends the same mix of work; the seed
// jitters the refit points and the two SSTA input slews and picks the
// order within a round.
type analysisList struct {
	rounds    [][]*request
	sstaSlews []float64
}

// estimateSlew and estimateLoad fix the process-space estimate point.
// The estimators' cost varies tenfold across the table (0.1–4 s per
// estimate), and at some 5σ points MNIS or AIS exhausts the 2^22-sample
// budget unconverged (NAND2/B at slew 0.02 load 0.07, NAND2/A at slew
// 0.03 load 0.01, BUFF/A at slew 0.044 load 0.004); here all six arcs
// converge at 4σ and 5σ within 0.75M samples.
const (
	estimateSlew = 0.003
	estimateLoad = 0.04
)

// estimateRotation is the cycle of estimator and sigma an arc steps
// through from one round to the next; MNIS and AIS at the same sigma sit
// in consecutive rounds, so their intervals can be compared early.
var estimateRotation = []struct {
	estimator string
	sigma     float64
}{{"mnis", 4}, {"ais", 4}, {"mnis", 5}, {"ais", 5}}

func newAnalysisList(lib *liberty.Library, seed uint64, rounds int) (*analysisList, error) {
	slews, loads, err := tableRange(lib)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed) ^ 0xa11))
	arcs := servedArcs(lib)
	// near places a point at fraction f of [lo, hi], moved by a seeded
	// jitter of up to 2% of the range. Refit points follow a fixed
	// low-discrepancy sequence over the table and SSTA slews sit near
	// fixed values: the quantile grid's cost varies nearly twofold across
	// the table, so points drawn anywhere would make each seed a different
	// amount of work, while a jittered point is still never asked before.
	near := func(lo, hi, f float64) float64 {
		return round5(lo + (hi-lo)*(0.04+0.92*f+0.02*(2*rng.Float64()-1)))
	}
	l := &analysisList{sstaSlews: []float64{near(0.005, 0.035, 0.25), near(0.005, 0.035, 0.75)}}
	lastSlew, lastLoad := slews[len(slews)-1], loads[len(loads)-1]
	for round := 0; round < rounds; round++ {
		var rr []*request
		for i := 0; i < 2; i++ {
			n := 2*round + i
			a, base, kind := arcs[n/2%len(arcs)], bases[n%2], refitOrder[n%len(refitOrder)]
			// The R2 sequence (plastic-number steps) spreads the points
			// evenly over the table.
			fs, fl := math.Mod(0.5+float64(n)*0.7548776662, 1), math.Mod(0.5+float64(n)*0.5698402910, 1)
			s, ld := near(slews[0], lastSlew, fs), near(loads[0], lastLoad, fl)
			rr = append(rr, &request{class: "refit", method: http.MethodGet,
				uri:  arcQuery("/v1/arc/binning", a, base, s, ld, "kind="+kind),
				cell: a.cell, pin: a.pin, base: base, slew: s, load: ld, kind: kind})
		}
		slew := l.sstaSlews[round%2]
		rr = append(rr, &request{class: "rca16", method: http.MethodPost, uri: "/v1/ssta",
			body: fmt.Sprintf(`{"lib":%q,"builtin":"rca16","slew":%s,"families":["lvf","lvf2"]}`, libName, fmtF(slew)),
			slew: slew})
		for j, a := range arcs {
			est := estimateRotation[(round+j)%len(estimateRotation)]
			rr = append(rr, &request{class: "estimate", method: http.MethodGet,
				uri:  arcQuery("/v1/yield", a, "cell_rise", estimateSlew, estimateLoad, fmt.Sprintf("estimator=%s&sigma=%g", est.estimator, est.sigma)),
				cell: a.cell, pin: a.pin, base: "cell_rise", slew: estimateSlew, load: estimateLoad, kind: "lvf2", estimator: est.estimator})
		}
		rng.Shuffle(len(rr), func(a, b int) { rr[a], rr[b] = rr[b], rr[a] })
		l.rounds = append(l.rounds, rr)
	}
	return l, nil
}

// answer is one completed analysis request.
type answer struct {
	r    *request
	ms   float64
	body []byte
	err  error
}

type estimateJSON struct {
	Clock    float64 `json:"clock"`
	Estimate *struct {
		Space       string  `json:"space"`
		FailProb    float64 `json:"fail_prob"`
		CILo        float64 `json:"ci_lo"`
		CIHi        float64 `json:"ci_hi"`
		Samples     int     `json:"samples"`
		SearchEvals int     `json:"search_evals"`
		Converged   bool    `json:"converged"`
	} `json:"estimate"`
}

// analysisChecker holds the references the answers are checked against.
type analysisChecker struct {
	lib  *liberty.Library
	ssta map[float64]*sta.Result
	rca  *netlist.Module
}

// check validates one answer. Refits must be undegraded, of the
// requested kind, with mean within 1% and std within 10% of the arc's
// LVF² moments; SSTA arrivals must equal the sta.Run reference;
// estimates must be converged process-space answers.
func (c *analysisChecker) check(r *request, resp *http.Response, b []byte) error {
	if err := checkStatus(r, resp, b); err != nil {
		return err
	}
	switch r.class {
	case "refit":
		var got binningJSON
		if err := json.Unmarshal(b, &got); err != nil {
			return err
		}
		if want := refitKinds[r.kind].String(); got.Model.Kind != want {
			return fmt.Errorf("served kind %s, asked for %s", got.Model.Kind, want)
		}
		base, err := tableModel(c.lib, r)
		if err != nil {
			return err
		}
		d := base.Dist()
		mu, sd := d.Mean(), stats.Std(d)
		if math.Abs(got.Mean-mu) > 0.01*math.Abs(mu) || math.Abs(got.Std-sd) > 0.1*sd {
			return fmt.Errorf("refit moments (%g, %g) stray from the LVF² moments (%g, %g)", got.Mean, got.Std, mu, sd)
		}
	case "rca16":
		ref, ok := c.ssta[r.slew]
		if !ok {
			return fmt.Errorf("no SSTA reference at slew %g", r.slew)
		}
		return sstaMatches(b, ref, c.rca)
	case "estimate":
		var got estimateJSON
		if err := json.Unmarshal(b, &got); err != nil {
			return err
		}
		switch {
		case got.Estimate == nil:
			return fmt.Errorf("no estimate in the answer")
		case got.Estimate.Space != "process":
			return fmt.Errorf("estimate in %s space, want process", got.Estimate.Space)
		case !got.Estimate.Converged:
			return fmt.Errorf("estimate did not converge (%d samples)", got.Estimate.Samples)
		}
	}
	return nil
}

// tableModel is the arc's LVF² model at the request's point, read from
// the benchmark's own parse of the served library.
func tableModel(lib *liberty.Library, r *request) (core.Model, error) {
	c, ok := lib.Cells[r.cell]
	if !ok {
		return core.Model{}, fmt.Errorf("no cell %s", r.cell)
	}
	arc, ok := c.Pins["ZN"].ArcTo(r.pin)
	if !ok {
		return core.Model{}, fmt.Errorf("no arc %s/%s", r.cell, r.pin)
	}
	tm, ok := arc.Tables[r.base]
	if !ok {
		return core.Model{}, fmt.Errorf("no %s table", r.base)
	}
	return tm.ModelAtPoint(r.slew, r.load)
}

func runAnalysis(e *env) (*outcome, error) {
	out := newOutcome()
	tr := newTracer()
	refLib, err := buildServedLibrary(context.Background())
	if err != nil {
		return nil, err
	}
	// Enough rounds for any sane time budget; a round takes ~3 s.
	list, err := newAnalysisList(refLib.lib, e.seed, int(e.seconds)+20)
	if err != nil {
		return nil, err
	}
	chk := &analysisChecker{lib: refLib.lib, ssta: map[float64]*sta.Result{}, rca: netlist.RippleCarryAdder(16)}
	var mu sync.Mutex
	if err := forEach(len(list.sstaSlews), e.wl.Clients, func(_, i int) error {
		res, err := sta.Run(refLib.lib, chk.rca, sta.Options{InputSlew: list.sstaSlews[i], Families: bothFamilies})
		mu.Lock()
		chk.ssta[list.sstaSlews[i]] = res
		mu.Unlock()
		return err
	}); err != nil {
		return nil, err
	}
	// One hot query per set-up makes the parsed library resident.
	warm := &request{class: "binning", method: http.MethodGet,
		uri: arcQuery("/v1/arc/binning", servedArcs(refLib.lib)[0], "cell_rise", 0.01, 0.01, "kind=lvf2")}

	var sys *system
	var g *loadgen
	var lib *servedLibrary
	var setups []float64
	for i := 0; i < 3; i++ {
		if sys != nil {
			g.close()
			sys.close()
		}
		t0 := time.Now()
		sys, g, lib, err = setupDaemon(e, 1, tr, refLib.text, nil, "rca16")
		if err != nil {
			return nil, err
		}
		if err := g.send(g.workers[0], warm, g.targets[0], checkStatus); err != nil {
			return nil, err
		}
		setups = append(setups, secondsSince(t0))
	}
	defer sys.close()
	defer g.close()
	out.e2e["setup_s"] = median(setups)
	out.reportf("set-ups (s): %.3f; SSTA slews %v", setups, list.sstaSlews)

	// phase sends whole rounds back to back from one client until the
	// time budget is spent, stopping mid-round at the deadline once one
	// round is complete. The throughput is the median over complete rounds
	// of the round's answers per second: a stall of the shared host slows
	// one round and moves the median by at most one rank.
	next := 0
	phase := func(traced bool) (map[string]float64, []answer) {
		tr.on.Store(traced)
		defer tr.on.Store(false)
		heap := watchHeap()
		client := g.workers[0]
		var answers []answer
		var rates []float64
		deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
		for (len(rates) == 0 || time.Now().Before(deadline)) && next < len(list.rounds) {
			round := list.rounds[next]
			next++
			t0 := time.Now()
			n := 0
			for _, r := range round {
				if len(rates) > 0 && time.Now().After(deadline) {
					break
				}
				ta := time.Now()
				var body []byte
				err := g.send(client, r, g.targets[0], func(r *request, resp *http.Response, b []byte) error {
					body = b
					return chk.check(r, resp, b)
				})
				answers = append(answers, answer{r: r, ms: ms(time.Since(ta)), body: body, err: err})
				n++
			}
			if n == len(round) {
				rates = append(rates, float64(n)/secondsSince(t0))
			}
		}
		peak := heap.peakMiB()
		failed := 0
		for _, a := range answers {
			if a.err != nil {
				failed++
				out.problem("%s: %v", a.r.label(), a.err)
			}
		}
		failed += checkOverlap(answers, out)
		out.attempted += len(answers)
		out.failed += failed
		var lat []float64
		for _, a := range answers {
			lat = append(lat, a.ms)
		}
		// p50_ms is the geometric mean of the three class medians, so each
		// class weighs the same: the median of all answers falls between
		// the clusters of cheap estimates and of refits and moves with the
		// count of each.
		logSum := 0.0
		byClass := classLatencies(answers)
		for _, class := range analysisClasses {
			logSum += math.Log(median(byClass[class]))
		}
		out.reportf("rounds (answers/s): %.3f", rates)
		return map[string]float64{
			"heap_peak_mb":     peak,
			"ok_ratio":         1 - float64(failed)/float64(len(answers)),
			"throughput_per_s": median(rates),
			"p50_ms":           math.Exp(logSum / float64(len(analysisClasses))),
			"tail_ms":          tailOf(lat),
		}, answers
	}

	untraced, answers := phase(false)
	for k, v := range untraced {
		out.e2e[k] = v
	}
	byClass := classLatencies(answers)
	for _, class := range analysisClasses {
		xs := byClass[class]
		name := class
		if class == "rca16" {
			name = "ssta"
		}
		out.e2e[name+"_p50_ms"] = median(xs)
		out.reportf("class %-8s n=%d p50 %.1f ms", class, len(xs), median(xs))
	}
	out.e2e["answers_per_s"] = untraced["throughput_per_s"]
	out.e2e["fail_ratio"] = 1 - untraced["ok_ratio"]
	if !e.trace {
		return out, nil
	}

	rt0, d0 := readRuntime(), readDaemon(sys)
	traced, tanswers := phase(true)
	rt1, d1 := readRuntime(), readDaemon(sys)
	overhead(out, untraced, traced)
	recordRuntime(out, rt0, rt1, len(tanswers))
	recordDaemon(out, d0, d1)
	out.layer["liberty.parse_s"] = lib.parse.Seconds()
	spans := tr.all()
	handlerLayers(out, spans)
	if err := replayAnalysis(refLib.lib, tanswers, spans, tr, out); err != nil {
		return nil, err
	}
	snCDFProbe(refLib.lib, e.seed, out)
	saveTrace(e, tr, out)
	return out, nil
}

func classLatencies(answers []answer) map[string][]float64 {
	m := map[string][]float64{}
	for _, a := range answers {
		m[a.r.class] = append(m[a.r.class], a.ms)
	}
	return m
}

// checkOverlap requires the MNIS and AIS confidence intervals of each
// answered pair (same arc, point and sigma) to overlap, and returns the
// number of pairs that do not.
func checkOverlap(answers []answer, out *outcome) int {
	type ci struct{ lo, hi float64 }
	byKey := map[string]map[string]ci{}
	for _, a := range answers {
		if a.r.class != "estimate" || a.err != nil {
			continue
		}
		var got estimateJSON
		if err := json.Unmarshal(a.body, &got); err != nil || got.Estimate == nil {
			continue
		}
		key := strings.Replace(a.r.uri, "estimator="+a.r.estimator, "", 1)
		if byKey[key] == nil {
			byKey[key] = map[string]ci{}
		}
		byKey[key][a.r.estimator] = ci{got.Estimate.CILo, got.Estimate.CIHi}
	}
	bad := 0
	for key, m := range byKey {
		a, aok := m["mnis"]
		b, bok := m["ais"]
		if aok && bok && (a.hi < b.lo || b.hi < a.lo) {
			bad++
			out.problem("MNIS and AIS intervals do not overlap for %s: [%g, %g] vs [%g, %g]", key, a.lo, a.hi, b.lo, b.hi)
		}
	}
	return bad
}

// replayAnalysis replays, for every answer of the traced phase, the
// layer calls the daemon made and checks that each reproduces the
// daemon's answer bit for bit.
func replayAnalysis(lib *liberty.Library, answers []answer, spans []span, tr *tracer, out *outcome) error {
	tr.on.Store(true)
	defer tr.on.Store(false)
	var quantMS, refitMS, staMS, searchMS, evalS, samplerS []float64
	var samples, searchEvals, batches, essRatio []float64
	for _, a := range answers {
		if a.err != nil {
			continue
		}
		switch a.r.class {
		case "refit":
			q, f, err := replayRefit(lib, a, tr)
			if err != nil {
				out.problem("replay fidelity: %s: %v", a.r.label(), err)
				continue
			}
			quantMS, refitMS = append(quantMS, q), append(refitMS, f)
		case "rca16":
			mod := netlist.RippleCarryAdder(16)
			id, t0 := tr.begin()
			res, err := sta.Run(lib, mod, sta.Options{InputSlew: a.r.slew, Families: bothFamilies})
			d := time.Since(t0)
			tr.end(id, 0, 0, "replay.sta.Run", "rca16", t0)
			if err == nil {
				err = sstaMatches(a.body, res, mod)
			}
			if err != nil {
				out.problem("replay fidelity: %s: %v", a.r.label(), err)
				continue
			}
			staMS = append(staMS, ms(d))
		case "estimate":
			r, err := replayEstimate(a, tr)
			if err != nil {
				out.problem("replay fidelity: %s: %v", a.r.label(), err)
				continue
			}
			searchMS = append(searchMS, r.searchMS)
			evalS = append(evalS, r.evalS)
			samplerS = append(samplerS, r.samplerS)
			samples = append(samples, float64(r.res.Samples))
			searchEvals = append(searchEvals, float64(r.res.SearchEvals))
			batches = append(batches, float64(r.res.Batches))
			essRatio = append(essRatio, r.res.ESS/float64(r.res.Samples))
		}
	}
	l := out.layer
	l["stats.quantile_ms"] = mean(quantMS)
	l["fit.refit_ms"] = mean(refitMS)
	l["sta.run_ms.rca16"] = mean(staMS)
	l["yield.search_ms"] = mean(searchMS)
	l["yield.eval_s"] = mean(evalS)
	l["yield.sampler_s"] = mean(samplerS)
	l["yield.samples"] = mean(samples)
	l["yield.search_evals"] = mean(searchEvals)
	l["yield.batches"] = mean(batches)
	l["yield.ess_ratio"] = mean(essRatio)

	// The unexplained gap per class: mean entry-handler time minus the
	// mean replayed layer time of the same answers.
	handler := map[string][]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "server.") && s.Parent != 0 {
			handler[strings.TrimPrefix(s.Name, "server.")] = append(handler[strings.TrimPrefix(s.Name, "server.")], ms(s.dur()))
		}
	}
	explained := map[string]float64{
		"refit":    mean(quantMS) + mean(refitMS),
		"rca16":    mean(staMS),
		"estimate": mean(searchMS) + 1000*(mean(evalS)+mean(samplerS)),
	}
	for class, gapName := range map[string]string{"refit": "gap_ms.refit", "rca16": "gap_ms.ssta", "estimate": "gap_ms.estimate"} {
		h := mean(handler[class])
		l[gapName] = h - explained[class]
		if h > 0 {
			out.reportf("class %-8s handler mean %.1f ms, replayed layers %.1f ms (%.0f%%), gap %.1f ms",
				class, h, explained[class], 100*explained[class]/h, h-explained[class])
		}
	}
	out.reportf("analysis replays: %d refits, %d SSTA, %d estimates reproduced", len(refitMS), len(staMS), len(searchMS))
	return nil
}

// replayRefit reruns the daemon's refit of one answer: the midpoint
// quantile grid on the arc's LVF² distribution, then FitKindRobust. The
// fitted parameters must equal the served ones bit for bit.
func replayRefit(lib *liberty.Library, a answer, tr *tracer) (quantMS, fitMS float64, err error) {
	base, err := tableModel(lib, a.r)
	if err != nil {
		return 0, 0, err
	}
	d := base.Dist()
	id, t0 := tr.begin()
	xs := make([]float64, fitSamples)
	for i := range xs {
		xs[i] = stats.Quantile(d, (float64(i)+0.5)/float64(fitSamples))
	}
	tq := time.Now()
	tr.end(id, 0, 0, "replay.stats.Quantile", a.r.kind, t0)
	id, _ = tr.begin()
	m, _, err := core.FitKindRobust(refitKinds[a.r.kind], xs, fit.RobustOptions{})
	tf := time.Now()
	tr.end(id, 0, 0, "replay.core.FitKindRobust", a.r.kind, tq)
	if err != nil {
		return 0, 0, err
	}
	var got binningJSON
	if err := json.Unmarshal(a.body, &got); err != nil {
		return 0, 0, err
	}
	same := got.Model.Lambda == m.Lambda && got.Model.Theta1 == thetaJSON{m.Theta1.Mean, m.Theta1.Sigma, m.Theta1.Skew}
	if !m.IsLVF() {
		same = same && got.Model.Theta2 != nil && *got.Model.Theta2 == thetaJSON{m.Theta2.Mean, m.Theta2.Sigma, m.Theta2.Skew}
	}
	if !same {
		return 0, 0, fmt.Errorf("refit parameters differ from the served model")
	}
	return ms(tq.Sub(t0)), ms(tf.Sub(tq)), nil
}

type estimateReplay struct {
	res                       yield.Result
	searchMS, evalS, samplerS float64
}

// replayEstimate reruns a GET /v1/yield estimate through yield.New with
// a wrapped Spec.Eval. The search ends at the SearchEvals-th evaluation
// (known from the served answer, which the deterministic replay must
// reproduce); evaluations after it count as eval time; the rest of the
// estimate (LHS draws, reweighting, CI checks) is sampler time.
func replayEstimate(a answer, tr *tracer) (estimateReplay, error) {
	var got estimateJSON
	if err := json.Unmarshal(a.body, &got); err != nil {
		return estimateReplay{}, err
	}
	if got.Estimate == nil {
		return estimateReplay{}, fmt.Errorf("no estimate")
	}
	ct, ok := cells.CellByName(a.r.cell)
	if !ok {
		return estimateReplay{}, fmt.Errorf("no cell type %s", a.r.cell)
	}
	pinIdx := -1
	for i, p := range libbuild.InputPins(ct.Inputs) {
		if p == a.r.pin {
			pinIdx = i
		}
	}
	arcs := ct.Arcs()
	if pinIdx < 0 || pinIdx >= len(arcs) {
		return estimateReplay{}, fmt.Errorf("pin %s does not map to an electrical arc", a.r.pin)
	}
	spec := yield.FromArc(arcs[pinIdx].Elec, spice.TTCorner(), yield.MetricDelay, a.r.slew, a.r.load, got.Clock)
	eval := spec.Eval
	var calls int
	var inEval time.Duration
	var searchEnd time.Time
	searchEvals := got.Estimate.SearchEvals
	spec.Eval = func(x []float64) float64 {
		t := time.Now()
		v := eval(x)
		done := time.Now()
		calls++
		if calls == searchEvals {
			searchEnd = done
		} else if calls > searchEvals {
			inEval += done.Sub(t)
		}
		return v
	}
	est, err := yield.New(a.r.estimator)
	if err != nil {
		return estimateReplay{}, err
	}
	id, t0 := tr.begin()
	res, err := est.Estimate(context.Background(), spec, yield.Contract{MaxSamples: yieldMaxSamples, Batch: yieldBatch})
	total := time.Since(t0)
	tr.end(id, 0, 0, "replay.yield.Estimate", a.r.estimator, t0)
	if err != nil {
		return estimateReplay{}, err
	}
	if res.Samples != got.Estimate.Samples || res.FailProb != got.Estimate.FailProb || res.SearchEvals != searchEvals {
		return estimateReplay{}, fmt.Errorf("replay gives %d samples, p=%g; the daemon served %d, p=%g",
			res.Samples, res.FailProb, got.Estimate.Samples, got.Estimate.FailProb)
	}
	search := searchEnd.Sub(t0)
	if searchEvals == 0 {
		search = 0
	}
	return estimateReplay{res: res, searchMS: ms(search), evalS: inEval.Seconds(),
		samplerS: (total - search - inEval).Seconds()}, nil
}

// snCDFProbe times SkewNormal.CDF over a fixed seeded probe set drawn
// from the served models' components.
func snCDFProbe(lib *liberty.Library, seed uint64, out *outcome) {
	rng := rand.New(rand.NewSource(int64(seed) ^ 0xcdf))
	var sns []stats.SkewNormal
	for _, a := range servedArcs(lib) {
		arc, _ := lib.Cells[a.cell].Pins["ZN"].ArcTo(a.pin)
		for _, base := range bases {
			tm := arc.Tables[base]
			for _, s := range tm.Nominal.Index1 {
				for _, ld := range tm.Nominal.Index2 {
					m, err := tm.ModelAtPoint(s, ld)
					if err != nil {
						continue
					}
					sns = append(sns, m.Theta1.SN())
					if !m.IsLVF() {
						sns = append(sns, m.Theta2.SN())
					}
				}
			}
		}
	}
	if len(sns) == 0 {
		return
	}
	type probe struct {
		sn stats.SkewNormal
		x  float64
	}
	probes := make([]probe, 4096)
	for i := range probes {
		sn := sns[rng.Intn(len(sns))]
		probes[i] = probe{sn, sn.Mean() + 4*(2*rng.Float64()-1)*math.Sqrt(sn.Variance())}
	}
	var sink float64
	const reps = 10
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range probes {
			sink += p.sn.CDF(p.x)
		}
	}
	out.layer["stats.sn_cdf_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(reps*len(probes))
	if math.IsNaN(sink) {
		out.problem("SkewNormal.CDF probe returned NaN")
	}
}
