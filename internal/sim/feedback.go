package sim

import (
	"fmt"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// FeedbackOptions tunes PlanWithFeedback.
type FeedbackOptions struct {
	// Rounds is the number of replan iterations after the initial LP-HTA
	// pass. Default 3.
	Rounds int
	// Sim configures the simulator used for the feedback measurements.
	Sim Config
	// LPHTA configures the scheduling stage.
	LPHTA core.LPHTAOptions
	// MaxTightening caps how much a task's planning deadline may shrink
	// relative to its real deadline (default 8: plan as if the deadline
	// were up to 8x tighter).
	MaxTightening float64
	// Obs selects where metrics and trace spans are recorded; the
	// planner and simulator stages inherit it per round.
	Obs obs.Instruments
}

func (o FeedbackOptions) withDefaults() FeedbackOptions {
	if o.Rounds == 0 {
		o.Rounds = 3
	}
	if o.MaxTightening == 0 {
		o.MaxTightening = 8
	}
	return o
}

// RoundStats records one feedback iteration.
type RoundStats struct {
	// Misses is the number of placed tasks finishing after their real
	// deadline in the simulator.
	Misses int
	// Cancelled is the number of tasks the planner gave up on.
	Cancelled int
	// Lost is the number of placed tasks the fault recovery gave up on
	// (always 0 without fault injection).
	Lost int
	// Energy is the analytic total energy of the round's assignment.
	Energy units.Energy
	// MeanLatency is the simulated mean latency.
	MeanLatency units.Duration
}

// FeedbackResult is the outcome of PlanWithFeedback.
type FeedbackResult struct {
	// Assignment is the best assignment found (fewest simulated misses;
	// energy breaks ties).
	Assignment *core.Assignment
	// Best indexes Rounds at the chosen assignment.
	Best int
	// Rounds records every iteration, index 0 being plain LP-HTA.
	Rounds []RoundStats
}

// PlanWithFeedback goes beyond the paper: it closes the loop between the
// closed-form planner and the queueing reality. Plain LP-HTA satisfies
// deadlines against the analytic t_ijl, but under contention the simulated
// completions inflate and many deadlines are missed (see the simcheck
// experiment). Each feedback round measures per-task inflation in the
// simulator and replans with deadlines tightened by that factor, making
// LP-HTA spread load away from contended resources (or cancel tasks it
// cannot protect). The assignment with the fewest unsatisfied tasks
// (simulated misses plus cancellations) wins; energy breaks ties.
//
// Rounds ≥ 1 replan through warm per-station cluster states
// (core.ClusterState) rather than rebuilding every cluster LP: each round
// pushes only the deadline changes since the previous round and re-solves
// only the clusters those changes touched, warm-starting from the
// previous optimal basis. The result equals running plain LP-HTA on the
// deadline-tightened task set every round.
func PlanWithFeedback(m *costmodel.Model, ts *task.Set, opts FeedbackOptions) (*FeedbackResult, error) {
	opts = opts.withDefaults()

	span := opts.Obs.Span.Child("feedback")
	defer span.End()
	opts.Obs.Counter("feedback.runs").Inc()
	// Every stage below records under a per-round child span.
	roundSpan := span.Child("feedback.round0")
	if opts.LPHTA.Obs.Metrics == nil {
		opts.LPHTA.Obs.Metrics = opts.Obs.Metrics
	}
	if opts.Sim.Obs.Metrics == nil {
		opts.Sim.Obs.Metrics = opts.Obs.Metrics
	}
	opts.LPHTA.Obs.Span = roundSpan
	opts.Sim.Obs.Span = roundSpan

	res := &FeedbackResult{}
	record := func(a *core.Assignment) (*Result, error) {
		simRes, err := Run(m, ts, a, opts.Sim)
		if err != nil {
			return nil, err
		}
		metrics, err := core.Evaluate(m, ts, a)
		if err != nil {
			return nil, err
		}
		lost := 0
		if simRes.Faults != nil {
			lost = simRes.Faults.Lost
		}
		res.Rounds = append(res.Rounds, RoundStats{
			Misses:      simRes.DeadlineViolations,
			Cancelled:   simRes.Cancelled,
			Lost:        lost,
			Energy:      metrics.TotalEnergy,
			MeanLatency: simRes.MeanLatency(),
		})
		return simRes, nil
	}
	better := func(i, j int) bool { // is round i better than round j?
		a, b := res.Rounds[i], res.Rounds[j]
		// Rank by the paper's unsatisfied notion: deadline misses plus
		// cancellations (plus fault-lost tasks); energy breaks ties.
		if ua, ub := a.Misses+a.Cancelled+a.Lost, b.Misses+b.Cancelled+b.Lost; ua != ub {
			return ua < ub
		}
		return a.Energy < b.Energy
	}

	// Round 0: plain LP-HTA.
	base, err := core.LPHTA(m, ts, &opts.LPHTA)
	if err != nil {
		return nil, fmt.Errorf("sim: feedback round 0: %w", err)
	}
	simRes, err := record(base.Assignment)
	roundSpan.End()
	if err != nil {
		return nil, err
	}
	res.Assignment = base.Assignment
	res.Best = 0
	opts.Obs.Counter("feedback.rounds").Inc()

	// Per-task tightening factors in task-set arena order, refined each
	// round. The rebuilt sets below preserve that order, so simulation
	// outcomes and tightening entries always align by index.
	tighten := make([]float64, ts.Len())
	for i := range tighten {
		tighten[i] = 1
	}

	lpOpts := opts.LPHTA
	lpOpts.Obs.Span = span
	fc, err := newFeedbackClusters(m, ts, lpOpts)
	if err != nil {
		return nil, fmt.Errorf("sim: feedback setup: %w", err)
	}

	for round := 1; round <= opts.Rounds; round++ {
		roundSpan := span.Child(fmt.Sprintf("feedback.round%d", round))
		opts.Sim.Obs.Span = roundSpan
		// Update tightening from the latest simulation: a task that ran
		// f times slower than planned needs an f-times tighter plan.
		for i := range simRes.Outcomes {
			o := &simRes.Outcomes[i]
			if !o.Placed || o.Analytic <= 0 {
				continue
			}
			f := o.Completion.Seconds() / o.Analytic.Seconds()
			if f > tighten[i] {
				tighten[i] = f
			}
			if tighten[i] > opts.MaxTightening {
				tighten[i] = opts.MaxTightening
			}
		}

		replanned, err := fc.replan(ts, tighten)
		if err != nil {
			return nil, fmt.Errorf("sim: feedback round %d: %w", round, err)
		}
		simRes, err = record(replanned)
		roundSpan.End()
		if err != nil {
			return nil, err
		}
		opts.Obs.Counter("feedback.rounds").Inc()
		opts.Obs.Counter("feedback.replans").Inc()
		if better(len(res.Rounds)-1, res.Best) {
			res.Best = len(res.Rounds) - 1
			res.Assignment = replanned
		}
	}
	best := res.Rounds[res.Best]
	opts.Obs.Gauge("feedback.best_round").Set(float64(res.Best))
	opts.Obs.Gauge("feedback.best_unsatisfied").Set(float64(best.Misses + best.Cancelled + best.Lost))
	span.Annotate("best_round", res.Best)
	span.Annotate("rounds", len(res.Rounds))
	return res, nil
}

// feedbackClusters carries one warm ClusterState per station across
// feedback rounds, plus each station's last result, so a round only
// re-solves the clusters whose planning deadlines actually changed.
type feedbackClusters struct {
	states  []*core.ClusterState // indexed by station; nil = no tasks there
	results []*core.ClusterResult
	dirty   []bool
	station []int     // per arena index: the task's station
	applied []float64 // per arena index: tightening currently in the states
}

// newFeedbackClusters streams every task into its station's ClusterState
// with its original deadline. The first replan solves each cluster cold;
// later rounds warm-start.
func newFeedbackClusters(m *costmodel.Model, ts *task.Set, lpOpts core.LPHTAOptions) (*feedbackClusters, error) {
	sys := m.System()
	fc := &feedbackClusters{
		states:  make([]*core.ClusterState, sys.NumStations()),
		results: make([]*core.ClusterResult, sys.NumStations()),
		dirty:   make([]bool, sys.NumStations()),
		station: make([]int, ts.Len()),
		applied: make([]float64, ts.Len()),
	}
	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		st, err := sys.StationOf(t.ID.User)
		if err != nil {
			return nil, err
		}
		fc.station[i] = st
		fc.applied[i] = 1
		if fc.states[st] == nil {
			cs, err := core.NewClusterState(m, st, &lpOpts)
			if err != nil {
				return nil, err
			}
			fc.states[st] = cs
			fc.dirty[st] = true
		}
		if err := fc.states[st].AddTask(*t); err != nil {
			return nil, err
		}
	}
	return fc, nil
}

// replan pushes the tightening deltas since the previous round into the
// cluster states, re-solves only the dirtied clusters, and assembles the
// full assignment from the per-cluster results.
func (fc *feedbackClusters) replan(ts *task.Set, tighten []float64) (*core.Assignment, error) {
	for i := 0; i < ts.Len(); i++ {
		//meclint:allow(floatcmp) unchanged factors are bit-identical copies, not computed values
		if tighten[i] == fc.applied[i] {
			continue
		}
		t := ts.At(i)
		d := t.Deadline / units.Duration(tighten[i])
		if err := fc.states[fc.station[i]].SetDeadline(t.ID, d); err != nil {
			return nil, err
		}
		fc.applied[i] = tighten[i]
		fc.dirty[fc.station[i]] = true
	}
	a := core.NewAssignment(ts)
	for st, cs := range fc.states {
		if cs == nil {
			continue
		}
		if fc.dirty[st] {
			res, err := cs.Solve()
			if err != nil {
				return nil, err
			}
			fc.results[st] = res
			fc.dirty[st] = false
		}
		for _, p := range fc.results[st].Placements {
			a.Place(p.ID, p.Level)
		}
	}
	return a, nil
}
