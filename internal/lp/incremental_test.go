package lp_test

import (
	"math"
	"testing"

	"dsmec/internal/lp"
	"dsmec/internal/obs"
	"dsmec/internal/perfbench"
	"dsmec/internal/rng"
)

// checkResolve runs one warm-capable Resolve and cross-checks it against
// a cold solve of the same (current) problem: identical
// statuses, objectives within 1e-9 relative, and a feasible point. It
// returns both solutions for test-specific checks.
func checkResolve(t *testing.T, inc *lp.Incremental) (got, cold *lp.Solution) {
	t.Helper()
	got, err := inc.Resolve(obs.Instruments{})
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	cold, err = lp.Solve(inc.Problem())
	if err != nil {
		t.Fatalf("cold cross-check solve: %v", err)
	}
	if got.Status != cold.Status {
		t.Fatalf("status disagreement: incremental=%v cold=%v", got.Status, cold.Status)
	}
	if got.Status != lp.Optimal {
		return got, cold
	}
	if diff := math.Abs(got.Objective - cold.Objective); diff > 1e-9*(1+math.Abs(cold.Objective)) {
		t.Fatalf("objective disagreement: incremental=%.12g cold=%.12g (diff %g)",
			got.Objective, cold.Objective, diff)
	}
	checkFeasiblePoint(t, "incremental", inc.Problem(), got.X)
	checkFeasiblePoint(t, "cold", inc.Problem(), cold.X)
	return got, cold
}

func TestIncrementalColdMatchesSolve(t *testing.T) {
	cases := []struct {
		name string
		p    *lp.Problem
	}{
		{"simple maximization", &lp.Problem{
			Minimize: []float64{-1, -1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 2}, Sense: lp.LE, RHS: 4},
				{Coeffs: []float64{3, 1}, Sense: lp.LE, RHS: 6},
			},
		}},
		{"equality constraint", &lp.Problem{
			Minimize: []float64{1, 2},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1}, Sense: lp.EQ, RHS: 3},
				{Coeffs: []float64{1, 0}, Sense: lp.LE, RHS: 2},
			},
		}},
		{"negative rhs le", &lp.Problem{
			Minimize: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{-1}, Sense: lp.LE, RHS: -2},
			},
		}},
		{"infeasible rows", &lp.Problem{
			Minimize: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Sense: lp.GE, RHS: 2},
				{Coeffs: []float64{1}, Sense: lp.LE, RHS: 1},
			},
		}},
		{"unbounded", &lp.Problem{
			Minimize: []float64{-1, 0},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 1},
			},
		}},
		{"tight zero bounds", &lp.Problem{
			Minimize: []float64{-5, -1, -1},
			Upper:    []float64{0, 1, 0},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1, 1}, Sense: lp.LE, RHS: 2},
				{Coeffs: []float64{1, 0, 1}, Sense: lp.GE, RHS: 0},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inc, err := lp.NewIncremental(tc.p)
			if err != nil {
				t.Fatalf("NewIncremental: %v", err)
			}
			got, _ := checkResolve(t, inc)
			if got.Warm {
				t.Fatalf("first Resolve reported Warm")
			}
			// Resolving again without mutations must stay consistent
			// (warm when the first solve was optimal).
			again, _ := checkResolve(t, inc)
			if wantWarm := got.Status == lp.Optimal; again.Warm != wantWarm {
				t.Fatalf("second Resolve Warm = %v, want %v", again.Warm, wantWarm)
			}
		})
	}
}

func TestIncrementalBoundAndRHSMutations(t *testing.T) {
	// Includes a negated row (RHS < 0) so SetRHS exercises the stored
	// sign normalization.
	p := &lp.Problem{
		Minimize: []float64{-2, -3, 1},
		Upper:    []float64{4, 4, 4},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{1, 2, 0}, Sense: lp.LE, RHS: 6},
			{Coeffs: []float64{-1, 0, -1}, Sense: lp.LE, RHS: -1},
			{Coeffs: []float64{1, 1, 1}, Sense: lp.EQ, RHS: 5},
		},
	}
	inc, err := lp.NewIncremental(p)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	if sol, _ := checkResolve(t, inc); sol.Status != lp.Optimal {
		t.Fatalf("seed problem not optimal: %v", sol.Status)
	}

	steps := []func(){
		func() { inc.SetUpper(1, 1.5) },         // tighten a bound
		func() { inc.SetRHS(0, 4) },             // tighten an LE row
		func() { inc.SetRHS(1, -2) },            // move the negated row
		func() { inc.SetRHS(2, 3.5) },           // move the EQ row
		func() { inc.SetUpper(0, 0) },           // pin a variable
		func() { inc.SetUpper(1, 4) },           // relax back
		func() { inc.SetUpper(0, 2) },           // unpin
		func() { inc.SetRHS(2, 100) },           // make the EQ unsatisfiable
		func() { inc.SetRHS(2, 3) },             // and feasible again
		func() { inc.SetUpper(2, math.Inf(1)) }, // clear a bound
	}
	for i, step := range steps {
		step()
		sol, _ := checkResolve(t, inc)
		t.Logf("step %d: status=%v warm=%v pivots=%d dual=%d",
			i, sol.Status, sol.Warm, sol.Stats.Pivots, sol.Stats.DualPivots)
	}
}

func TestIncrementalAppendedRows(t *testing.T) {
	p := &lp.Problem{
		Minimize: []float64{1, 2},
		Upper:    []float64{10, 10},
		Constraints: []lp.Constraint{
			{Coeffs: []float64{1, 1}, Sense: lp.GE, RHS: 2},
		},
	}
	inc, err := lp.NewIncremental(p)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	checkResolve(t, inc)

	// A new EQ row populated by a new variable (the task-arrival shape).
	row := inc.AddRow(lp.EQ, 1)
	inc.AddVariable(0.5, 1, []int{0, row}, []float64{1, 1})
	if sol, _ := checkResolve(t, inc); !sol.Warm {
		t.Fatalf("EQ append did not resolve warm")
	}

	// A new LE row over existing variables only: its slack seats
	// basically, possibly violated, and the dual phase repairs it.
	rowLE := inc.AddRow(lp.LE, 1.5)
	inc.AddVariable(0, 1.5, []int{rowLE}, []float64{1})
	v := inc.AddVariable(-1, 1, []int{rowLE}, []float64{1})
	if sol, _ := checkResolve(t, inc); !sol.Warm {
		t.Fatalf("LE append did not resolve warm")
	}

	// A GE row referencing the appended variable.
	inc.AddRow(lp.GE, 0.25)
	// The GE row has no coefficients yet: 0 >= 0.25 is infeasible, and
	// the incremental path must report exactly what a cold solve does.
	if sol, _ := checkResolve(t, inc); sol.Status != lp.Infeasible {
		t.Fatalf("empty GE row solved as %v, want infeasible", sol.Status)
	}
	// Populating the row restores feasibility; the solver state was
	// dropped on the infeasible solve, so this one rebuilds cold.
	inc.AddVariable(0.1, 1, []int{3}, []float64{1})
	_ = v
	if sol, _ := checkResolve(t, inc); sol.Status != lp.Optimal {
		t.Fatalf("populated GE row solved as %v, want optimal", sol.Status)
	}
}

// clusterHarness drives task-arrival/departure/deadline mutations
// against an Incremental built from a perfbench.ClusterLP instance,
// mirroring how core.ClusterState mutates a cluster relaxation: one EQ
// row and three columns per task, pinning on removal, bound-only
// deadline tightening.
type clusterHarness struct {
	inc *lp.Incremental
	// Row layout of perfbench.ClusterLP: C4 rows [0,tasks), one row per
	// device (10 per cluster), then the station row.
	devRow0, stationRow int
	vars                [][3]int // per task: device/station/cloud variable
	c4                  []int    // per task: its EQ row
	live                []bool
}

// clusterDevices mirrors perfbench's devicesPerCluster.
const clusterDevices = 10

func newClusterHarness(t *testing.T, tasks int) *clusterHarness {
	t.Helper()
	if tasks < clusterDevices {
		t.Fatalf("need >= %d tasks so every device row exists", clusterDevices)
	}
	p := perfbench.ClusterLP(tasks, true)
	inc, err := lp.NewIncremental(p)
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	h := &clusterHarness{inc: inc, devRow0: tasks, stationRow: tasks + clusterDevices}
	for i := 0; i < tasks; i++ {
		h.vars = append(h.vars, [3]int{3 * i, 3*i + 1, 3*i + 2})
		h.c4 = append(h.c4, i)
		h.live = append(h.live, true)
	}
	return h
}

// addTask appends one task with ClusterLP-shaped costs and bounds.
func (h *clusterHarness) addTask(r rngStream) {
	dev := len(h.vars) % clusterDevices
	res := 1 + r.Float64()*3
	base := 1 + r.Float64()
	u := func() float64 { return 0.5 + r.Float64()/2 }
	c4 := h.inc.AddRow(lp.EQ, 1)
	vd := h.inc.AddVariable(base, u(), []int{c4, h.devRow0 + dev}, []float64{1, res})
	vs := h.inc.AddVariable(base*(1.5+r.Float64()), u(), []int{c4, h.stationRow}, []float64{1, res})
	vc := h.inc.AddVariable(base*(3+r.Float64()), u(), []int{c4}, []float64{1})
	h.vars = append(h.vars, [3]int{vd, vs, vc})
	h.c4 = append(h.c4, c4)
	h.live = append(h.live, true)
}

// removeTask pins a live task's columns and zeroes its EQ row.
func (h *clusterHarness) removeTask(i int) {
	for _, v := range h.vars[i] {
		h.inc.SetUpper(v, 0)
	}
	h.inc.SetRHS(h.c4[i], 0)
	h.live[i] = false
}

// tighten shrinks one subsystem bound of a live task, floored so the
// task row stays satisfiable on its own (3 × 0.35 > 1).
func (h *clusterHarness) tighten(i, level int) {
	v := h.vars[i][level]
	u := h.inc.Problem().Upper[v]
	if u*0.7 < 0.35 {
		return
	}
	h.inc.SetUpper(v, u*0.7)
}

// rngStream is the subset of *rand.Rand the harness draws from.
type rngStream interface {
	Float64() float64
	Intn(n int) int
}

// roundedLevels maps an LP point to per-task argmax levels, ties toward
// the lower level — the same rounding rule LP-HTA Step 2 uses for
// integral points.
func (h *clusterHarness) roundedLevels(x []float64) []int {
	out := make([]int, 0, len(h.vars))
	for i, vs := range h.vars {
		if !h.live[i] {
			out = append(out, -1)
			continue
		}
		bestL, bestV := 0, x[vs[0]]
		for l := 1; l < 3; l++ {
			if x[vs[l]] > bestV+1e-9 {
				bestL, bestV = l, x[vs[l]]
			}
		}
		out = append(out, bestL)
	}
	return out
}

func TestIncrementalClusterMutationSequences(t *testing.T) {
	for _, tasks := range []int{12, 25, 40} {
		t.Run(map[int]string{12: "tasks=12", 25: "tasks=25", 40: "tasks=40"}[tasks], func(t *testing.T) {
			h := newClusterHarness(t, tasks)
			r := rng.NewSource(int64(tasks)).Stream("incremental-mutations")

			sol, _ := checkResolve(t, h.inc)
			if sol.Status != lp.Optimal {
				t.Fatalf("seed cluster not optimal: %v", sol.Status)
			}
			prevOptimal := true

			for step := 0; step < 12; step++ {
				switch k := r.Intn(4); {
				case k <= 1: // arrivals twice as likely as the rest
					h.addTask(r)
				case k == 2:
					i := r.Intn(len(h.vars))
					if h.live[i] {
						h.removeTask(i)
					} else {
						h.addTask(r)
					}
				default:
					i := r.Intn(len(h.vars))
					if h.live[i] {
						h.tighten(i, r.Intn(3))
					} else {
						h.addTask(r)
					}
				}

				sol, cold := checkResolve(t, h.inc)
				if sol.Warm != prevOptimal {
					t.Fatalf("step %d: Warm = %v after prevOptimal = %v (unexpected fallback?)",
						step, sol.Warm, prevOptimal)
				}
				prevOptimal = sol.Status == lp.Optimal
				if sol.Status != lp.Optimal {
					continue
				}
				warmLv := h.roundedLevels(sol.X)
				coldLv := h.roundedLevels(cold.X)
				for i := range warmLv {
					if warmLv[i] != coldLv[i] {
						t.Fatalf("step %d: task %d rounds to level %d warm, %d cold",
							step, i, warmLv[i], coldLv[i])
					}
				}
			}
		})
	}
}

// TestIncrementalWarmPivotBudget pins the acceptance criterion: after a
// single task arrival in a 300-task cluster, the warm re-solve must
// finish in under 10% of the pivots a cold solve of the
// same mutated problem needs (and match it exactly otherwise). The
// 150-task case guards the smaller end.
func TestIncrementalWarmPivotBudget(t *testing.T) {
	for _, tasks := range []int{150, 300} {
		t.Run(map[int]string{150: "tasks=150", 300: "tasks=300"}[tasks], func(t *testing.T) {
			h := newClusterHarness(t, tasks)
			r := rng.NewSource(99).Stream("pivot-budget")
			if sol, err := h.inc.Resolve(obs.Instruments{}); err != nil || sol.Status != lp.Optimal {
				t.Fatalf("seed solve: %v %v", sol, err)
			}

			h.addTask(r)
			warm, cold := checkResolve(t, h.inc)
			if !warm.Warm {
				t.Fatalf("arrival re-solve was not warm")
			}
			if warm.Status != lp.Optimal || cold.Status != lp.Optimal {
				t.Fatalf("statuses: warm=%v cold=%v", warm.Status, cold.Status)
			}
			if 10*warm.Stats.Pivots >= cold.Stats.Pivots {
				t.Fatalf("warm re-solve took %d pivots, cold %d: want < 10%%",
					warm.Stats.Pivots, cold.Stats.Pivots)
			}
			warmLv, coldLv := h.roundedLevels(warm.X), h.roundedLevels(cold.X)
			for i := range warmLv {
				if warmLv[i] != coldLv[i] {
					t.Fatalf("task %d rounds to %d warm, %d cold", i, warmLv[i], coldLv[i])
				}
			}
			t.Logf("tasks=%d: warm pivots=%d (dual=%d flips=%d) cold pivots=%d",
				tasks, warm.Stats.Pivots, warm.Stats.DualPivots,
				warm.Stats.BoundFlips, cold.Stats.Pivots)
		})
	}
}
