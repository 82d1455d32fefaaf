package sim

import (
	"math"
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func TestPlanWithFeedbackReducesMisses(t *testing.T) {
	// A contended scenario where plain LP-HTA misses many deadlines under
	// queueing; feedback replanning must not be worse, and usually helps.
	sc, err := workload.GenerateHolistic(rng.NewSource(31), workload.Params{
		NumDevices: 20, NumStations: 4, NumTasks: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("expected 4 rounds (1 base + 3 feedback), got %d", len(res.Rounds))
	}
	base := res.Rounds[0]
	best := res.Rounds[res.Best]
	if best.Misses+best.Cancelled > base.Misses+base.Cancelled {
		t.Errorf("feedback made things worse: %d unsatisfied vs base %d",
			best.Misses+best.Cancelled, base.Misses+base.Cancelled)
	}
	t.Logf("base: %d misses, %d cancelled, %v; best (round %d): %d misses, %d cancelled, %v",
		base.Misses, base.Cancelled, base.Energy, res.Best, best.Misses, best.Cancelled, best.Energy)

	// The returned assignment must genuinely reproduce the best round's
	// numbers.
	simRes, err := Run(sc.Model, sc.Tasks, res.Assignment, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.DeadlineViolations != best.Misses {
		t.Errorf("returned assignment has %d misses, best round recorded %d",
			simRes.DeadlineViolations, best.Misses)
	}
}

func TestPlanWithFeedbackUncontended(t *testing.T) {
	// With almost no contention the base plan already wins; feedback must
	// return it unchanged.
	sc, err := workload.GenerateHolistic(rng.NewSource(32), workload.Params{
		NumDevices: 30, NumStations: 5, NumTasks: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	b0, bb := res.Rounds[0], res.Rounds[res.Best]
	if bb.Misses+bb.Cancelled > b0.Misses+b0.Cancelled {
		t.Error("best round cannot be worse than the base round")
	}
}

func TestPlanWithFeedbackDeterministic(t *testing.T) {
	run := func() *FeedbackResult {
		sc, err := workload.GenerateHolistic(rng.NewSource(33), workload.Params{
			NumDevices: 10, NumStations: 2, NumTasks: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Best != b.Best || len(a.Rounds) != len(b.Rounds) {
		t.Fatal("feedback nondeterministic")
	}
	for i := range a.Rounds {
		if a.Rounds[i] != b.Rounds[i] {
			t.Fatalf("round %d differs: %+v vs %+v", i, a.Rounds[i], b.Rounds[i])
		}
	}
}

func TestPlanWithFeedbackRespectsConstraints(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(34), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The chosen assignment still satisfies C2-C5 (C1 holds against the
	// *tightened* deadlines, hence also against the real ones for placed
	// tasks planned in round 0; later rounds plan against tighter ones, so
	// real-deadline feasibility still holds).
	if err := core.CheckFeasible(sc.Model, sc.Tasks, res.Assignment); err != nil {
		t.Error(err)
	}
}

// batchFeedback is the reference for PlanWithFeedback's warm replan: every
// round rebuilds all cluster LPs by running plain LP-HTA on the task set
// with deadlines tightened by the measured inflation, under the same
// tightening and ranking rules.
func batchFeedback(t *testing.T, sc *workload.Scenario, rounds int) *FeedbackResult {
	t.Helper()
	const maxTightening = 8
	m, ts := sc.Model, sc.Tasks
	res := &FeedbackResult{}
	var simRes *Result
	plan := func(set *task.Set) *core.Assignment {
		hta, err := core.LPHTA(m, set, nil)
		if err != nil {
			t.Fatal(err)
		}
		if simRes, err = Run(m, ts, hta.Assignment, Config{}); err != nil {
			t.Fatal(err)
		}
		metrics, err := core.Evaluate(m, ts, hta.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		res.Rounds = append(res.Rounds, RoundStats{
			Misses:      simRes.DeadlineViolations,
			Cancelled:   simRes.Cancelled,
			Energy:      metrics.TotalEnergy,
			MeanLatency: simRes.MeanLatency(),
		})
		return hta.Assignment
	}
	unsatisfied := func(r RoundStats) int { return r.Misses + r.Cancelled + r.Lost }

	res.Assignment = plan(ts)
	tighten := make([]float64, ts.Len())
	for i := range tighten {
		tighten[i] = 1
	}
	for round := 1; round <= rounds; round++ {
		for i, o := range simRes.Outcomes {
			if !o.Placed || o.Analytic <= 0 {
				continue
			}
			tighten[i] = math.Min(maxTightening, math.Max(tighten[i], o.Completion.Seconds()/o.Analytic.Seconds()))
		}
		adjusted := &task.Set{}
		for i := 0; i < ts.Len(); i++ {
			tt := *ts.At(i)
			tt.Deadline /= units.Duration(tighten[i])
			if err := adjusted.Add(&tt); err != nil {
				t.Fatal(err)
			}
		}
		a := plan(adjusted)
		cur, best := res.Rounds[round], res.Rounds[res.Best]
		if u, ub := unsatisfied(cur), unsatisfied(best); u < ub || (u == ub && cur.Energy < best.Energy) {
			res.Best, res.Assignment = round, a
		}
	}
	return res
}

func TestPlanWithFeedbackIncrementalMatchesBatch(t *testing.T) {
	// The warm incremental replan must reproduce a batch replan round for
	// round: same assignments, same stats, same winner.
	for _, seed := range []int64{31, 34, 35} {
		sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
			NumDevices: 16, NumStations: 3, NumTasks: 90,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := batchFeedback(t, sc, 3)
		warm, err := PlanWithFeedback(sc.Model, sc.Tasks, FeedbackOptions{Rounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(warm.Rounds) != len(batch.Rounds) {
			t.Fatalf("seed %d: %d rounds vs batch %d", seed, len(warm.Rounds), len(batch.Rounds))
		}
		for r := range batch.Rounds {
			if warm.Rounds[r] != batch.Rounds[r] {
				t.Errorf("seed %d round %d: stats %+v, batch %+v", seed, r, warm.Rounds[r], batch.Rounds[r])
			}
		}
		if warm.Best != batch.Best {
			t.Errorf("seed %d: best round %d, batch %d", seed, warm.Best, batch.Best)
		}
		if !warm.Assignment.Equal(batch.Assignment) {
			t.Errorf("seed %d: incremental assignment differs from batch", seed)
		}
	}
}
