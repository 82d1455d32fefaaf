package core

import (
	"fmt"

	"dsmec/internal/costmodel"
	"dsmec/internal/lp"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

// ClusterState is a warm, mutable view of one cluster's LP-HTA problem. It
// accepts task arrivals, departures, and deadline changes between solves and
// re-solves the cluster relaxation incrementally via lp.Incremental: the
// previous optimal basis is reused and repaired by a short dual-simplex
// phase instead of being rebuilt from scratch. Rounding and repair (Steps
// 2–6) run through the same roundAndRepair code as the batch LPHTA, so a
// ClusterState holding the same tasks as a batch run produces the same
// assignment.
//
// Departed tasks keep their (pinned, inert) LP columns until enough garbage
// accumulates, at which point the state compacts itself with one cold
// rebuild. ClusterState is not safe for concurrent use; callers shard by
// station and lock per shard.
type ClusterState struct {
	m       *costmodel.Model
	station int
	opts    LPHTAOptions

	inc        *lp.Incremental
	slots      []clusterSlot
	slotOf     map[task.ID]int
	deviceRow  map[int]int // device id -> C2 row index
	stationRow int         // C3 row index, -1 until the LP exists
	lpTasks    int         // live slots holding LP columns
	dead       int         // removed slots still holding pinned columns
}

// clusterSlot tracks one task ever added to the cluster. The task is stored
// by value: callers may keep their copy in a growing arena whose backing
// array moves.
type clusterSlot struct {
	t      task.Task
	opts   costmodel.Options
	bounds [3]float64
	reach  [3]bool
	vars   [3]int
	c4     int
	hasLP  bool
	// cancelled marks a task no subsystem can serve within its deadline;
	// it mirrors the batch pre-cancellation and keeps the task out of the
	// LP (its columns, if any, are pinned to zero).
	cancelled bool
	removed   bool
}

// ClusterPlacement is one task's placement in a ClusterResult
// (SubsystemNone = cancelled).
type ClusterPlacement struct {
	ID    task.ID
	Level costmodel.Subsystem
}

// ClusterResult is the outcome of one ClusterState.Solve, carrying the same
// per-cluster quantities a batch LPHTA run would contribute for this
// cluster.
type ClusterResult struct {
	// Placements lists every present (non-removed) task in arrival order.
	Placements []ClusterPlacement

	LPObjective     units.Energy
	RoundedEnergy   units.Energy
	Delta           units.Energy
	FractionalTasks int
	LPIterations    int
	PreCancelled    int
	// Warm reports whether the LP re-solve reused the previous basis.
	Warm bool
}

// Level returns the placement for id, or (SubsystemNone, false) when the
// task is not in the result.
func (r *ClusterResult) Level(id task.ID) (costmodel.Subsystem, bool) {
	for _, p := range r.Placements {
		if p.ID == id {
			return p.Level, true
		}
	}
	return costmodel.SubsystemNone, false
}

// NewClusterState creates an empty warm solver for one station's cluster.
func NewClusterState(m *costmodel.Model, station int, options *LPHTAOptions) (*ClusterState, error) {
	opts, err := options.withDefaults()
	if err != nil {
		return nil, err
	}
	sys := m.System()
	if station < 0 || station >= sys.NumStations() {
		return nil, fmt.Errorf("core: station %d out of range", station)
	}
	return &ClusterState{
		m:          m,
		station:    station,
		opts:       opts,
		slotOf:     make(map[task.ID]int),
		deviceRow:  make(map[int]int),
		stationRow: -1,
	}, nil
}

// Station returns the cluster's station index.
func (cs *ClusterState) Station() int { return cs.station }

// Len returns the number of present (non-removed) tasks, including
// cancelled ones.
func (cs *ClusterState) Len() int { return len(cs.slots) - cs.dead }

// Warm reports whether the next Solve can start from a previous basis.
func (cs *ClusterState) Warm() bool { return cs.inc != nil }

// TaskIDs returns the IDs of every present (non-removed) task in arrival
// order, including cancelled ones.
func (cs *ClusterState) TaskIDs() []task.ID {
	ids := make([]task.ID, 0, cs.Len())
	for si := range cs.slots {
		if !cs.slots[si].removed {
			ids = append(ids, cs.slots[si].t.ID)
		}
	}
	return ids
}

// AddTask admits one arriving task into the cluster. Tasks no subsystem can
// serve within their deadline are cancelled immediately, mirroring the
// batch pre-cancellation; everything else gets three LP columns and a C4
// convexity row (plus a C2 capacity row the first time its device appears).
func (cs *ClusterState) AddTask(t task.Task) error {
	if _, ok := cs.slotOf[t.ID]; ok {
		return fmt.Errorf("core: task %v already present", t.ID)
	}
	st, err := cs.m.System().StationOf(t.ID.User)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if st != cs.station {
		return fmt.Errorf("core: task %v belongs to station %d, not %d", t.ID, st, cs.station)
	}
	si := len(cs.slots)
	cs.slots = append(cs.slots, clusterSlot{t: t, c4: -1, vars: [3]int{-1, -1, -1}})
	slot := &cs.slots[si]
	slot.opts, err = cs.m.Eval(&slot.t)
	if err != nil {
		cs.slots = cs.slots[:si]
		return err
	}
	cs.slotOf[t.ID] = si
	if !feasibleAnywhere(&slot.t, slot.opts) {
		slot.cancelled = true
		cs.opts.Obs.Counter("lphta.pre_cancelled").Inc()
		return nil
	}
	cs.attachLP(si)
	return nil
}

// attachLP gives slot si its three columns and C4 row (and the C2 row for a
// device seen for the first time). The first attached task builds the
// initial one-task problem; later tasks append to the live solver.
func (cs *ClusterState) attachLP(si int) {
	sys := cs.m.System()
	slot := &cs.slots[si]
	slot.bounds, slot.reach = taskBounds(&slot.t, slot.opts)
	dev := slot.t.ID.User
	cost := [3]float64{}
	for li, l := range costmodel.Subsystems {
		cost[li] = float64(slot.opts.At(l).Energy)
	}

	if cs.inc == nil {
		// Initial problem: rows [C4, device, station], variables
		// [device, station, cloud] — the same shape solveClusterLP builds
		// for a one-task cluster.
		p := &lp.Problem{
			Minimize: cost[:],
			Upper:    slot.bounds[:],
			Constraints: []lp.Constraint{
				lp.Sparse([]int{0, 1, 2}, []float64{1, 1, 1}, lp.EQ, 1),
				lp.Sparse([]int{0}, []float64{slot.t.Resource}, lp.LE, sys.Devices[dev].ResourceCap),
				lp.Sparse([]int{1}, []float64{slot.t.Resource}, lp.LE, sys.Stations[cs.station].ResourceCap),
			},
		}
		inc, err := lp.NewIncremental(p)
		if err != nil {
			// The built problem is valid by construction.
			panic(fmt.Sprintf("core: initial cluster problem rejected: %v", err))
		}
		cs.inc = inc
		slot.c4 = 0
		cs.deviceRow[dev] = 1
		cs.stationRow = 2
		slot.vars = [3]int{0, 1, 2}
	} else {
		slot.c4 = cs.inc.AddRow(lp.EQ, 1)
		dr, ok := cs.deviceRow[dev]
		if !ok {
			dr = cs.inc.AddRow(lp.LE, sys.Devices[dev].ResourceCap)
			cs.deviceRow[dev] = dr
		}
		r := slot.t.Resource
		slot.vars[0] = cs.inc.AddVariable(cost[0], slot.bounds[0], []int{slot.c4, dr}, []float64{1, r})
		slot.vars[1] = cs.inc.AddVariable(cost[1], slot.bounds[1], []int{slot.c4, cs.stationRow}, []float64{1, r})
		slot.vars[2] = cs.inc.AddVariable(cost[2], slot.bounds[2], []int{slot.c4}, []float64{1})
	}
	slot.hasLP = true
	cs.lpTasks++
}

// RemoveTask retires a departed (or completed) task. Its LP columns are
// pinned to zero and its convexity row relaxed to Σx = 0, which keeps the
// basis warm; the state compacts once pinned garbage outweighs live tasks.
func (cs *ClusterState) RemoveTask(id task.ID) error {
	si, ok := cs.slotOf[id]
	if !ok || cs.slots[si].removed {
		return fmt.Errorf("core: task %v not present", id)
	}
	slot := &cs.slots[si]
	slot.removed = true
	if slot.hasLP {
		cs.detachLP(slot)
	}
	cs.dead++
	cs.maybeCompact()
	return nil
}

// detachLP pins slot's columns and zeroes its convexity row, leaving inert
// structure behind.
func (cs *ClusterState) detachLP(slot *clusterSlot) {
	for _, v := range slot.vars {
		cs.inc.SetUpper(v, 0)
	}
	cs.inc.SetRHS(slot.c4, 0)
	slot.hasLP = false
	cs.lpTasks--
}

// SetDeadline changes one task's deadline and refreshes its deadline-derived
// variable bounds. Tightening past the point where no subsystem can serve
// the task cancels it (as batch pre-cancellation would); loosening a
// cancelled task's deadline revives it.
func (cs *ClusterState) SetDeadline(id task.ID, deadline units.Duration) error {
	si, ok := cs.slotOf[id]
	if !ok || cs.slots[si].removed {
		return fmt.Errorf("core: task %v not present", id)
	}
	slot := &cs.slots[si]
	slot.t.Deadline = deadline
	if !feasibleAnywhere(&slot.t, slot.opts) {
		if !slot.cancelled {
			slot.cancelled = true
			cs.opts.Obs.Counter("lphta.pre_cancelled").Inc()
			if slot.hasLP {
				cs.detachLP(slot)
			}
		}
		return nil
	}
	if slot.cancelled {
		slot.cancelled = false
	}
	if !slot.hasLP {
		cs.attachLP(si)
		return nil
	}
	slot.bounds, slot.reach = taskBounds(&slot.t, slot.opts)
	for li, v := range slot.vars {
		cs.inc.SetUpper(v, slot.bounds[li])
	}
	return nil
}

// maybeCompact rebuilds the state cold once pinned departed columns
// outnumber live tasks (and there are enough of them to matter).
func (cs *ClusterState) maybeCompact() {
	if cs.dead <= 16 || cs.dead <= cs.lpTasks {
		return
	}
	cs.opts.Obs.Counter("lphta.inc.compactions").Inc()
	kept := make([]clusterSlot, 0, len(cs.slots)-cs.dead)
	for _, slot := range cs.slots {
		if !slot.removed {
			kept = append(kept, slot)
		}
	}
	cs.slots = kept
	cs.slotOf = make(map[task.ID]int, len(kept))
	cs.deviceRow = make(map[int]int)
	cs.stationRow = -1
	cs.inc = nil
	cs.lpTasks = 0
	cs.dead = 0
	for si := range cs.slots {
		slot := &cs.slots[si]
		cs.slotOf[slot.t.ID] = si
		slot.hasLP = false
		slot.c4 = -1
		slot.vars = [3]int{-1, -1, -1}
		if !slot.cancelled {
			cs.attachLP(si)
		}
	}
}

// Solve re-solves the cluster (warm when possible) and runs rounding and
// repair, returning the cluster's assignment and Theorem 2 quantities. The
// batch infeasibility fallback is preserved: if deadline bounds and caps
// conflict, the deadline-derived bounds are relaxed for this solve only and
// restored afterwards.
func (cs *ClusterState) Solve() (*ClusterResult, error) {
	res := &ClusterResult{}
	cts := make([]clusterTask, 0, cs.lpTasks)
	sis := make([]int, 0, cs.lpTasks)
	for si := range cs.slots {
		slot := &cs.slots[si]
		if slot.removed {
			continue
		}
		if slot.cancelled {
			res.PreCancelled++
			continue
		}
		cts = append(cts, clusterTask{t: &slot.t, idx: int32(len(sis)), opts: slot.opts})
		sis = append(sis, si)
	}
	level := make(map[int]costmodel.Subsystem, len(cts))

	if len(cts) > 0 {
		sol, err := cs.resolve(sis)
		if err != nil {
			return nil, err
		}
		frac := make([][3]float64, len(cts))
		for k, si := range sis {
			vars := cs.slots[si].vars
			frac[k] = [3]float64{sol.X[vars[0]], sol.X[vars[1]], sol.X[vars[2]]}
		}
		res.LPObjective = units.Energy(sol.Objective)
		res.LPIterations = sol.Iterations
		res.Warm = sol.Warm

		out := &clusterOutcome{}
		roundAndRepair(cs.m.System(), cs.station, cts, frac, cs.opts, out)
		res.FractionalTasks = out.fractional
		for _, e := range out.rounded {
			res.RoundedEnergy += e
		}
		if out.delta > 0 {
			res.Delta = out.delta
		}
		for _, p := range out.placements {
			level[sis[p.idx]] = p.level
		}
	}

	res.Placements = make([]ClusterPlacement, 0, cs.Len())
	for si := range cs.slots {
		slot := &cs.slots[si]
		if slot.removed {
			continue
		}
		l := costmodel.SubsystemNone
		if !slot.cancelled {
			l = level[si]
		}
		res.Placements = append(res.Placements, ClusterPlacement{ID: slot.t.ID, Level: l})
	}
	return res, nil
}

// resolve runs the incremental LP, applying the batch path's
// infeasibility fallback (relax reachable deadline-derived bounds, solve
// again, restore) when needed.
func (cs *ClusterState) resolve(sis []int) (*lp.Solution, error) {
	sol, err := cs.inc.Resolve(cs.opts.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: cluster %d relaxation: %w", cs.station, err)
	}
	if sol.Status == lp.Optimal {
		return sol, nil
	}
	cs.opts.Obs.Counter("lphta.lp_fallbacks").Inc()
	cs.opts.Obs.Logger().Warn("lphta lp fallback: relaxing deadline-derived bounds",
		"station", cs.station,
		"tasks", len(sis),
		"status", sol.Status.String())
	for _, si := range sis {
		slot := &cs.slots[si]
		for li, v := range slot.vars {
			if slot.reach[li] {
				cs.inc.SetUpper(v, 1)
			}
		}
	}
	sol, err = cs.inc.Resolve(cs.opts.Obs)
	// Restore the deadline-derived bounds regardless of the outcome so
	// later mutations start from the true problem.
	for _, si := range sis {
		slot := &cs.slots[si]
		for li, v := range slot.vars {
			cs.inc.SetUpper(v, slot.bounds[li])
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: cluster %d relaxation fallback: %w", cs.station, err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: cluster %d relaxation fallback: status %v", cs.station, sol.Status)
	}
	return sol, nil
}
