package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below must
// match BENCHMARK.json; metrics_test.go keeps them in step.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics printed with -trace 0: what a user of the
// batch pipeline sees (README.md gives the definitions).
var endToEnd = []metricSpec{
	{"plan_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"energy_j", "J"},
	{"unsatisfied_ratio", "ratio"},
	{"sim_miss_ratio", "ratio"},
	{"assign_p50_ms", "ms"},
	{"assign_p90_ms", "ms"},
	{"saturation_events_per_s", "1/s"},
}

// perLayer are the metrics printed with -trace 1: time, work and waste per
// layer, measured around calls into each layer's public functions and from
// the observability the program already exports.
var perLayer = []metricSpec{
	{"scenarioio.decode_s", "s"},
	{"scenarioio.decode_mb_per_s", "MB/s"},
	{"core.lphta_s", "s"},
	{"core.cluster_max_s", "s"},
	{"core.pool_idle_share", "ratio"},
	{"core.round_repair_s", "s"},
	{"core.evaluate_s", "s"},
	{"core.compactions", "count"},
	{"lp.phase1_s", "s"},
	{"lp.phase2_s", "s"},
	{"lp.phase1_iterations", "count"},
	{"lp.phase2_iterations", "count"},
	{"lp.us_per_pivot", "us"},
	{"lp.refactorizations", "count"},
	{"lp.relaxation_fallbacks", "count"},
	{"lp.resolve_s", "s"},
	{"lp.dual_pivots_per_resolve", "count"},
	{"lp.warm_ratio", "ratio"},
	{"lp.cold_fallbacks", "count"},
	{"baseline.hgos_s", "s"},
	{"baseline.alloffload_s", "s"},
	{"sim.run_s", "s"},
	{"sim.build_s", "s"},
	{"sim.events_s", "s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.replan_cached_ratio", "ratio"},
	{"sim.retries", "count"},
	{"mecd.arrival_ms", "ms"},
	{"mecd.departure_ms", "ms"},
	{"mecd.solve_ms", "ms"},
	{"mecd.assignments_ms", "ms"},
	{"mecd.solve_server_share", "ratio"},
	{"mecd.solve_lp_share", "ratio"},
	{"mecd.rss_mb", "MB"},
	{"mecd.setup_s", "s"},
	{"client.lag_p50_ms", "ms"},
	{"client.lag_p99_ms", "ms"},
	{"client.assign_p50_ms", "ms"},
	{"client.assign_p99_ms", "ms"},
	{"client.saturation_events_per_s", "1/s"},
	{"client.assign_slo_ratio", "ratio"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"bench.unattributed_share", "ratio"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.failed_ratio", "ratio"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// renderMetrics pairs each spec with its measured value. A spec without a
// value, a value without a spec, or a non-finite value is a benchmark bug.
func renderMetrics(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", s.name, v)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}

// ledger counts operations (a mecsim run or an HTTP request) per phase
// and records every failure. A failed output check counts as a failed
// operation, so it shows in failed_ratio and fails the run.
type ledger struct {
	attempted, failed int
	phases            map[string]phaseCount
	problems          []string
}

// phaseCount is the per-phase operation tally printed beside the result.
type phaseCount struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// op records one operation of the named phase; a non-nil err marks it
// failed.
func (l *ledger) op(phase string, err error) {
	if l.phases == nil {
		l.phases = make(map[string]phaseCount)
	}
	c := l.phases[phase]
	c.Attempted++
	l.attempted++
	if err != nil {
		c.Failed++
		l.failed++
		l.problems = append(l.problems, fmt.Sprintf("%s: %v", phase, err))
	}
	l.phases[phase] = c
}

// check records the outcome of an output check that belongs to no single
// operation, such as a comparison across runs.
func (l *ledger) check(phase string, err error) {
	if err != nil {
		l.op(phase, err)
	}
}

func (l *ledger) correct() bool { return l.failed == 0 && l.attempted > 0 }

// failedRatio is failed operations over attempted ones.
func (l *ledger) failedRatio() float64 { return ratio(float64(l.failed), float64(l.attempted)) }

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a ratio over no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nproc is the number of CPUs this process may use, as nproc(1) prints
// it: the scheduler affinity count.
func nproc() int { return runtime.NumCPU() }
