package core

import (
	"math"
	"testing"

	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// arenaTasks returns pointers to every task in the set, in arena order.
func arenaTasks(ts *task.Set) []*task.Task {
	out := make([]*task.Task, ts.Len())
	for i := range out {
		out[i] = ts.At(i)
	}
	return out
}

// batchCompare runs the batch LPHTA over the given live tasks and asserts
// the ClusterResults (one per station, keyed by station index) agree with it
// on every placement and on the merged Theorem 2 quantities. When every
// result comes from a cold solve, which builds P2 exactly as batch does,
// the simplex iteration counts must agree too.
func batchCompare(t *testing.T, m *costmodel.Model, live []*task.Task, results map[int]*ClusterResult) {
	t.Helper()
	ts, err := task.NewSet(live...)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := LPHTA(m, ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var obj, rounded, delta units.Energy
	fractional, preCancelled, iterations := 0, 0, 0
	placed := 0
	cold := true
	for st := 0; st < m.System().NumStations(); st++ {
		res, ok := results[st]
		if !ok {
			continue
		}
		obj += res.LPObjective
		rounded += res.RoundedEnergy
		delta += res.Delta
		fractional += res.FractionalTasks
		preCancelled += res.PreCancelled
		iterations += res.LPIterations
		cold = cold && !res.Warm
		for _, p := range res.Placements {
			placed++
			if got := batch.Assignment.Of(p.ID); got != p.Level {
				t.Errorf("task %v: incremental placed %v, batch %v", p.ID, p.Level, got)
			}
		}
	}
	if placed != len(live) {
		t.Errorf("incremental results cover %d tasks, want %d", placed, len(live))
	}
	if diff := math.Abs(float64(obj - batch.LPObjective)); diff > 1e-9*(1+math.Abs(float64(batch.LPObjective))) {
		t.Errorf("LPObjective = %v, batch %v", obj, batch.LPObjective)
	}
	// Batch accumulates rounded energy task-by-task across cluster
	// boundaries with a single accumulator; summing per-cluster subtotals
	// associates differently, so allow float ulps here.
	if diff := math.Abs(float64(rounded - batch.RoundedEnergy)); diff > 1e-12*(1+math.Abs(float64(batch.RoundedEnergy))) {
		t.Errorf("RoundedEnergy = %v, batch %v", rounded, batch.RoundedEnergy)
	}
	if delta != batch.Delta {
		t.Errorf("Delta = %v, batch %v", delta, batch.Delta)
	}
	if fractional != batch.FractionalTasks {
		t.Errorf("FractionalTasks = %d, batch %d", fractional, batch.FractionalTasks)
	}
	if preCancelled != batch.PreCancelled {
		t.Errorf("PreCancelled = %d, batch %d", preCancelled, batch.PreCancelled)
	}
	if cold && iterations != batch.LPIterations {
		t.Errorf("cold LPIterations = %d, batch %d", iterations, batch.LPIterations)
	}
}

func TestClusterStateMatchesBatchOnRandomScenarios(t *testing.T) {
	// Streaming every task of a generated scenario through per-station
	// ClusterStates must reproduce the batch LPHTA run exactly, down to
	// the simplex iteration count of the first (cold) solve. The
	// 400-task cluster is large enough that a P2 laid out in arrival
	// order, rather than batch's row order, pivots differently.
	type scenario struct {
		seed   int64
		params workload.Params
	}
	var scenarios []scenario
	for seed := int64(0); seed < 6; seed++ {
		scenarios = append(scenarios, scenario{seed, workload.Params{NumDevices: 15, NumStations: 3, NumTasks: 50}})
	}
	scenarios = append(scenarios, scenario{1, workload.Params{NumDevices: 40, NumStations: 1, NumTasks: 400}})
	for _, scen := range scenarios {
		seed := scen.seed
		sc, err := workload.GenerateHolistic(rng.NewSource(seed), scen.params)
		if err != nil {
			t.Fatal(err)
		}
		sys := sc.Model.System()
		states := map[int]*ClusterState{}
		var live []*task.Task
		for i := 0; i < sc.Tasks.Len(); i++ {
			tk := sc.Tasks.At(i)
			st, err := sys.StationOf(tk.ID.User)
			if err != nil {
				t.Fatal(err)
			}
			cs, ok := states[st]
			if !ok {
				cs, err = NewClusterState(sc.Model, st, nil)
				if err != nil {
					t.Fatal(err)
				}
				states[st] = cs
			}
			if err := cs.AddTask(*tk); err != nil {
				t.Fatal(err)
			}
			live = append(live, tk)
		}
		results := map[int]*ClusterResult{}
		for st, cs := range states {
			if results[st], err = cs.Solve(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		batchCompare(t, sc.Model, live, results)
	}
}

func TestClusterStateMutationsMatchBatch(t *testing.T) {
	// Interleave arrivals, departures, deadline tightening, and solves;
	// after every solve the warm state must match a cold batch run over
	// the same live set.
	sc, err := workload.GenerateHolistic(rng.NewSource(11), workload.Params{
		NumDevices: 8, NumStations: 1, NumTasks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewClusterState(sc.Model, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := arenaTasks(sc.Tasks)
	// live mirrors the cluster contents by value so deadline mutations do
	// not leak into the shared scenario arena.
	live := map[task.ID]*task.Task{}
	order := []task.ID{}
	solve := func(warm bool) {
		t.Helper()
		res, err := cs.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm != warm {
			t.Errorf("Warm = %v, want %v", res.Warm, warm)
		}
		tasks := make([]*task.Task, 0, len(order))
		for _, id := range order {
			tasks = append(tasks, live[id])
		}
		batchCompare(t, sc.Model, tasks, map[int]*ClusterResult{0: res})
	}
	add := func(tk task.Task) {
		t.Helper()
		if err := cs.AddTask(tk); err != nil {
			t.Fatal(err)
		}
		cp := tk
		live[tk.ID] = &cp
		order = append(order, tk.ID)
	}
	remove := func(id task.ID) {
		t.Helper()
		if err := cs.RemoveTask(id); err != nil {
			t.Fatal(err)
		}
		delete(live, id)
		for i, o := range order {
			if o == id {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
	}

	for _, tk := range all[:25] {
		add(*tk)
	}
	if cs.Warm() {
		t.Error("Warm() before the first solve")
	}
	solve(false) // first solve is cold
	if !cs.Warm() {
		t.Error("!Warm() after an optimal solve")
	}
	for _, tk := range all[25:32] {
		add(*tk)
	}
	solve(true)
	remove(all[3].ID)
	remove(all[17].ID)
	remove(all[28].ID)
	solve(true)
	// Tighten a few deadlines to 60% and re-solve warm.
	for _, tk := range all[5:10] {
		if _, ok := live[tk.ID]; !ok {
			continue
		}
		d := units.Duration(float64(live[tk.ID].Deadline) * 0.6)
		if err := cs.SetDeadline(tk.ID, d); err != nil {
			t.Fatal(err)
		}
		live[tk.ID].Deadline = d
	}
	solve(true)
	// Churn: more arrivals after departures.
	for _, tk := range all[32:40] {
		add(*tk)
	}
	solve(true)
}

func TestClusterStateCancelAndRevive(t *testing.T) {
	_, m := twoDeviceSystem(t, 100, 100)
	cs, err := NewClusterState(m, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ok := simpleTask(0, 0, 500*units.Kilobyte, 1, 100*units.Second)
	doomed := simpleTask(1, 0, 3000*units.Kilobyte, 1, units.Microsecond)
	if err := cs.AddTask(*ok); err != nil {
		t.Fatal(err)
	}
	if err := cs.AddTask(*doomed); err != nil {
		t.Fatal(err)
	}
	res, err := cs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := res.Level(doomed.ID); l != costmodel.SubsystemNone {
		t.Errorf("impossible task placed on %v, want cancelled", l)
	}
	if res.PreCancelled != 1 {
		t.Errorf("PreCancelled = %d, want 1", res.PreCancelled)
	}
	// Loosening the deadline revives the task.
	if err := cs.SetDeadline(doomed.ID, 100*units.Second); err != nil {
		t.Fatal(err)
	}
	res, err = cs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := res.Level(doomed.ID); l == costmodel.SubsystemNone {
		t.Error("revived task still cancelled")
	}
	if res.PreCancelled != 0 {
		t.Errorf("PreCancelled = %d, want 0 after revival", res.PreCancelled)
	}
	// Tightening it back out cancels it again.
	if err := cs.SetDeadline(doomed.ID, units.Microsecond); err != nil {
		t.Fatal(err)
	}
	res, err = cs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := res.Level(doomed.ID); l != costmodel.SubsystemNone {
		t.Errorf("re-doomed task placed on %v, want cancelled", l)
	}
}

func TestClusterStateCompaction(t *testing.T) {
	// Add enough tasks and remove most of them: the state must compact
	// (cold rebuild) and still match batch afterwards.
	sc, err := workload.GenerateHolistic(rng.NewSource(23), workload.Params{
		NumDevices: 6, NumStations: 1, NumTasks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cs, err := NewClusterState(sc.Model, 0, &LPHTAOptions{Obs: obs.Instruments{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	all := arenaTasks(sc.Tasks)
	for _, tk := range all {
		if err := cs.AddTask(*tk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.Solve(); err != nil {
		t.Fatal(err)
	}
	var live []*task.Task
	for i, tk := range all {
		if i < 22 {
			if err := cs.RemoveTask(tk.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		live = append(live, tk)
	}
	if reg.Counter("lphta.inc.compactions").Value() == 0 {
		t.Fatal("expected a compaction after removing most tasks")
	}
	if cs.Warm() {
		t.Error("Warm() right after a compaction")
	}
	if got, want := cs.Len(), len(live); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	res, err := cs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	batchCompare(t, sc.Model, live, map[int]*ClusterResult{0: res})
}

func TestClusterStateInfeasibleFallback(t *testing.T) {
	// Two resource-2 tasks share a cap-2 device under a deadline loose
	// enough that only the device meets it but tight enough that the
	// offload bounds cannot absorb the overflow: the bounded LP is
	// infeasible, the deadline-relaxation fallback must fire, and the
	// result must still match batch (which applies the same fallback).
	_, m := twoDeviceSystem(t, 2, 100)
	// At 400kB the subsystem times are ~132ms (device), ~627ms (station),
	// ~937ms (cloud): a 150ms deadline keeps the device feasible but caps
	// each task's offloadable mass at ~0.4, while the C2 row only admits
	// one unit of combined device mass.
	tasks := []*task.Task{
		simpleTask(0, 0, 400*units.Kilobyte, 2, 150*units.Millisecond),
		simpleTask(0, 1, 400*units.Kilobyte, 2, 150*units.Millisecond),
	}
	// The scenario only works if it actually drives the LP infeasible;
	// assert that via the fallback counter so constant drift is caught.
	reg := obs.NewRegistry()
	cs, err := NewClusterState(m, 0, &LPHTAOptions{Obs: obs.Instruments{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if err := cs.AddTask(*tk); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("lphta.lp_fallbacks").Value() == 0 {
		t.Fatal("scenario did not drive the LP infeasible; constants need retuning")
	}
	batchCompare(t, m, tasks, map[int]*ClusterResult{0: res})
	if cs.Warm() {
		t.Error("Warm() after a solve that needed the fallback")
	}
	// A re-solve after a mutation must keep matching batch even though
	// the fallback dropped the warm basis.
	if err := cs.RemoveTask(tasks[1].ID); err != nil {
		t.Fatal(err)
	}
	res, err = cs.Solve()
	if err != nil {
		t.Fatal(err)
	}
	batchCompare(t, m, tasks[:1], map[int]*ClusterResult{0: res})
}

func TestClusterStateRejectsBadInput(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(3), workload.Params{
		NumDevices: 4, NumStations: 2, NumTasks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClusterState(sc.Model, -1, nil); err == nil {
		t.Error("negative station accepted")
	}
	if _, err := NewClusterState(sc.Model, 99, nil); err == nil {
		t.Error("out-of-range station accepted")
	}
	cs, err := NewClusterState(sc.Model, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var onStation *task.Task
	for _, tk := range arenaTasks(sc.Tasks) {
		st, err := sc.Model.System().StationOf(tk.ID.User)
		if err != nil {
			t.Fatal(err)
		}
		if st == 0 {
			onStation = tk
			break
		}
	}
	if onStation == nil {
		t.Skip("no task on station 0")
	}
	if err := cs.AddTask(*onStation); err != nil {
		t.Fatal(err)
	}
	if err := cs.AddTask(*onStation); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := cs.RemoveTask(task.ID{User: 999, Index: 0}); err == nil {
		t.Error("removing unknown task succeeded")
	}
	if err := cs.SetDeadline(task.ID{User: 999, Index: 0}, units.Second); err == nil {
		t.Error("deadline change on unknown task succeeded")
	}
}
