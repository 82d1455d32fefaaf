package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dsmec/internal/baseline"
	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/sim"
	"dsmec/internal/workload"
)

// layerRun is what the in-process traced pipeline measured.
type layerRun struct {
	total, decode, lphta, evaluate  time.Duration
	hgos, alloffload, alltoc, simRn time.Duration
	scenarioBytes                   int64
	workers                         int
	snap                            obs.Snapshot
	spans                           map[string]spanStats
	allocMB, gcCycles               float64
	report                          *report // the LP-HTA figures as mecsim would print them
}

// spanStats aggregates the trace spans of one name.
type spanStats struct {
	count    int
	sum, max time.Duration
}

// runLayers replays mecsim's holistic pipeline in process on the same
// scenario file: decode (loadScenario calls scenarioio.DecodeWithFaults),
// LP-HTA, feasibility and evaluation, the baselines, and the simulator
// replay, timing each call.
func runLayers(opts *options, in *inputs, led *ledger) (*layerRun, error) {
	w := opts.workload
	reg := obs.NewRegistry()
	tr := obs.NewTrace("benchmark")
	root := tr.StartSpan("benchmark")
	ins := obs.Instruments{Metrics: reg, Span: root}
	lr := &layerRun{scenarioBytes: in.scenarioBytes}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	timed := func(d *time.Duration, name string, fn func() error) error {
		span := root.Child(name)
		t := time.Now()
		err := fn()
		*d += time.Since(t)
		span.End()
		return err
	}

	var (
		sc *workload.Scenario
		fp *sim.FaultPlan
	)
	err := timed(&lr.decode, "bench.decode", func() (err error) {
		sc, fp, err = loadScenario(in.scenarioPath)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", in.scenarioPath, err)
	}
	if !w.faults {
		fp = nil
	}
	m, ts := sc.Model, sc.Tasks

	var lph *core.HTAResult
	if err := timed(&lr.lphta, "bench.lphta", func() (err error) {
		lph, err = core.LPHTA(m, ts, &core.LPHTAOptions{Obs: ins})
		return err
	}); err != nil {
		return nil, fmt.Errorf("LP-HTA: %w", err)
	}
	var lphMetrics *core.Metrics
	err = timed(&lr.evaluate, "bench.evaluate", func() (err error) {
		if err := core.CheckFeasible(m, ts, lph.Assignment); err != nil {
			return err
		}
		lphMetrics, err = core.Evaluate(m, ts, lph.Assignment)
		return err
	})
	led.op("trace", err)
	if err != nil {
		return nil, fmt.Errorf("LP-HTA output: %w", err)
	}
	if float64(lph.RoundedEnergy) > 3*float64(lph.LPObjective)*(1+1e-9) {
		led.check("trace", fmt.Errorf("rounded energy %v exceeds 3·E_LP = %v", lph.RoundedEnergy, 3*lph.LPObjective))
	}

	baselines := []struct {
		d   *time.Duration
		run func() (*core.Assignment, error)
	}{
		{&lr.hgos, func() (*core.Assignment, error) { return baseline.HGOS(m, ts) }},
		{&lr.alloffload, func() (*core.Assignment, error) { return baseline.AllOffload(m, ts) }},
		{&lr.alltoc, func() (*core.Assignment, error) { return baseline.AllToC(ts), nil }},
	}
	for i, bl := range baselines {
		var a *core.Assignment
		if err := timed(bl.d, "bench.baseline"+strconv.Itoa(i), func() (err error) {
			a, err = bl.run()
			return err
		}); err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		if err := timed(&lr.evaluate, "bench.evaluate", func() error {
			_, err := core.Evaluate(m, ts, a)
			return err
		}); err != nil {
			return nil, err
		}
	}

	var simRes *sim.Result
	if err := timed(&lr.simRn, "bench.sim", func() (err error) {
		simRes, err = sim.Run(m, ts, lph.Assignment, sim.Config{Obs: ins, Faults: fp})
		return err
	}); err != nil {
		return nil, fmt.Errorf("simulator: %w", err)
	}
	if err := timed(&lr.evaluate, "bench.evaluate", func() error {
		_, err := core.Evaluate(m, ts, lph.Assignment)
		return err
	}); err != nil {
		return nil, err
	}
	lr.total = time.Since(start)
	root.End()
	runtime.ReadMemStats(&ms1)
	lr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	lr.gcCycles = float64(ms1.NumGC - ms0.NumGC)

	lost := 0
	if simRes.Faults != nil {
		lost = simRes.Faults.Lost
	}
	if simRes.Placed+simRes.Cancelled+lost != ts.Len() {
		led.check("trace", fmt.Errorf("simulator placed %d + cancelled %d + lost %d != %d tasks",
			simRes.Placed, simRes.Cancelled, lost, ts.Len()))
	}
	lr.report = libraryReport(lph, lphMetrics, simRes, lost)
	lr.snap = reg.Snapshot()
	lr.workers = min(runtime.GOMAXPROCS(0), int(lr.snap.Counters["lphta.clusters"]))

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opts.workDir, "trace.json"), buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	lr.spans, err = summarizeSpans(buf.Bytes())
	return lr, err
}

// levelOrder is the column order of mecsim's device/station/cloud/cancel
// counts.
var levelOrder = [4]costmodel.Subsystem{
	costmodel.SubsystemDevice, costmodel.SubsystemStation, costmodel.SubsystemCloud, costmodel.SubsystemNone,
}

// libraryReport renders the in-process LP-HTA and simulator results at
// mecsim's printed precision, for comparison with the binary's report.
func libraryReport(lph *core.HTAResult, lm *core.Metrics, sr *sim.Result, lost int) *report {
	round1 := func(v float64) float64 { return atof(strconv.FormatFloat(v, 'f', 1, 64)) }
	r := &report{
		tasks:       lm.NumTasks,
		energyJ:     round1(lm.TotalEnergy.Joules()),
		unsatisfied: round1(100*lm.UnsatisfiedRate()) / 100,
		lpOptimumJ:  round1(lph.LPObjective.Joules()),
		misses:      sr.DeadlineViolations,
		lost:        lost,
	}
	r.deltaJ = atof(lph.Delta.String()[:len(lph.Delta.String())-1]) // strip the "J"
	for i := range r.counts {
		r.counts[i] = lm.CountByLevel[levelOrder[i]]
	}
	return r
}

// compareReports requires the binary's report to carry the library's
// figures. The topology fields come from the binary only.
func compareReports(bin, lib *report) error {
	b := *bin
	b.devices, b.stations = 0, 0
	if b != *lib {
		return fmt.Errorf("mecsim reported %+v, the library computed %+v", b, *lib)
	}
	return nil
}

// summarizeSpans aggregates a Chrome trace's complete events by name.
func summarizeSpans(doc []byte) (map[string]spanStats, error) {
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &tr); err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	out := make(map[string]spanStats)
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		d := time.Duration(ev.Dur * float64(time.Microsecond))
		s := out[ev.Name]
		s.count++
		s.sum += d
		s.max = max(s.max, d)
		out[ev.Name] = s
	}
	return out, nil
}

// layerMetrics assembles the per-layer figures from the in-process run, the
// mecsim runs and the mecd run (nil when it could not run).
func layerMetrics(lr *layerRun, b *batchResult, o *onlineResult, failedRatio float64) map[string]float64 {
	c := func(name string) float64 { return float64(lr.snap.Counters[name]) }
	h := func(name string) float64 { return lr.snap.Histograms[name].Sum }
	hc := func(name string) float64 { return float64(lr.snap.Histograms[name].Count) }
	// Re-solve figures add the in-process run's (the simulator's fault
	// replans) to the daemon's, which are deltas over the measured phases.
	resolves, warm, coldFallbacks := c("lp.resolves"), c("lp.resolves.warm"), c("lp.resolves.cold_fallback")
	resolveSecs, resolveCount := h("lp.resolve_seconds"), hc("lp.resolve_seconds")
	dualPivots, compactions := c("lp.dual_pivots"), c("lphta.inc.compactions")
	m := map[string]float64{
		"mecd.arrival_ms": 0, "mecd.departure_ms": 0, "mecd.solve_ms": 0, "mecd.assignments_ms": 0,
		"mecd.solve_server_share": 0, "mecd.solve_lp_share": 0, "mecd.rss_mb": 0,
		"mecd.setup_s": 0, "client.lag_p50_ms": 0, "client.lag_p99_ms": 0, "client.assign_p50_ms": 0,
		"client.assign_p99_ms": 0, "client.saturation_events_per_s": 0, "client.assign_slo_ratio": 0,
	}
	if o != nil && o.before != nil && o.after != nil {
		d := func(name string) float64 { return o.after.counter(name) - o.before.counter(name) }
		dh := func(name string) float64 { return o.after.hsum(name) - o.before.hsum(name) }
		resolves += d("lp.resolves")
		warm += d("lp.resolves.warm")
		coldFallbacks += d("lp.resolves.cold_fallback")
		resolveSecs += dh("lp.resolve_seconds")
		resolveCount += o.after.hcount("lp.resolve_seconds") - o.before.hcount("lp.resolve_seconds")
		dualPivots += d("lp.dual_pivots")
		compactions += d("lphta.inc.compactions")
		clientSolve := 0.0
		for _, ms := range o.requests["solve"] {
			clientSolve += ms / 1000
		}
		m["mecd.solve_server_share"] = ratio(dh("mecd.solve_seconds"), clientSolve)
		m["mecd.solve_lp_share"] = ratio(dh("lp.resolve_seconds"), dh("mecd.solve_seconds"))
	}
	if o != nil {
		m["mecd.arrival_ms"] = median(o.requests["arrival"])
		m["mecd.departure_ms"] = median(o.requests["departure"])
		m["mecd.solve_ms"] = median(o.requests["solve"])
		m["mecd.assignments_ms"] = median(o.requests["assignments"])
		m["mecd.rss_mb"] = o.rssMB
		m["client.lag_p50_ms"] = percentile(o.lagMs, 0.50)
		m["client.lag_p99_ms"] = percentile(o.lagMs, 0.99)
		m["client.assign_p50_ms"] = percentile(o.assignMs, 0.50)
		m["client.assign_p99_ms"] = percentile(o.assignMs, 0.99)
		m["client.saturation_events_per_s"] = o.saturated
		m["mecd.setup_s"] = median(o.setup)
		m["client.assign_slo_ratio"] = ratio(float64(o.sloMet), float64(o.phase1))
	}

	sp := func(name string) float64 { return lr.spans[name].sum.Seconds() }
	lphta := lr.lphta.Seconds()
	phase1, phase2 := sp("lp.phase1"), sp("lp.phase2")
	iters1, iters2 := c("lp.phase1_iterations"), c("lp.phase2_iterations")
	events := c("sim.events")
	layers := lr.decode + lr.lphta + lr.evaluate + lr.hgos + lr.alloffload + lr.alltoc + lr.simRn
	planS := b.planS()

	m["scenarioio.decode_s"] = lr.decode.Seconds()
	m["scenarioio.decode_mb_per_s"] = ratio(float64(lr.scenarioBytes)/1e6, lr.decode.Seconds())
	m["core.lphta_s"] = lphta
	m["core.cluster_max_s"] = lr.spans["lphta.cluster"].max.Seconds()
	m["core.pool_idle_share"] = 0
	if lr.workers > 0 && lphta > 0 {
		m["core.pool_idle_share"] = 1 - sp("lphta.cluster")/(float64(lr.workers)*lphta)
	}
	m["core.round_repair_s"] = h("lphta.stage_seconds.round") + h("lphta.stage_seconds.repair")
	m["core.evaluate_s"] = lr.evaluate.Seconds()
	m["core.compactions"] = compactions
	m["lp.phase1_s"] = phase1
	m["lp.phase2_s"] = phase2
	m["lp.phase1_iterations"] = iters1
	m["lp.phase2_iterations"] = iters2
	m["lp.us_per_pivot"] = ratio((phase1+phase2)*1e6, iters1+iters2)
	m["lp.refactorizations"] = c("lp.refactorizations")
	m["lp.relaxation_fallbacks"] = c("lphta.lp_fallbacks")
	m["lp.resolve_s"] = ratio(resolveSecs, resolveCount)
	m["lp.dual_pivots_per_resolve"] = ratio(dualPivots, resolves)
	m["lp.warm_ratio"] = ratio(warm, resolves)
	m["lp.cold_fallbacks"] = coldFallbacks
	m["baseline.hgos_s"] = lr.hgos.Seconds()
	m["baseline.alloffload_s"] = lr.alloffload.Seconds()
	m["sim.run_s"] = lr.simRn.Seconds()
	m["sim.build_s"] = sp("sim.build")
	m["sim.events_s"] = sp("sim.events")
	m["sim.events"] = events
	m["sim.ns_per_event"] = ratio(sp("sim.events")*1e9, events)
	m["sim.replan_cached_ratio"] = ratio(c("sim.replans.cached"), c("sim.replans.cached")+c("sim.replans.exact"))
	m["sim.retries"] = c("sim.retries")
	m["runtime.alloc_mb"] = lr.allocMB
	m["runtime.gc_cycles"] = lr.gcCycles
	m["bench.unattributed_share"] = 0
	if lr.total > 0 {
		m["bench.unattributed_share"] = 1 - layers.Seconds()/lr.total.Seconds()
	}
	m["bench.trace_overhead_share"] = 0
	if planS > 0 {
		m["bench.trace_overhead_share"] = lr.total.Seconds()/planS - 1
	}
	m["bench.failed_ratio"] = failedRatio
	return m
}
