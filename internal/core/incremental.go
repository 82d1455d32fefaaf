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
// phase instead of being rebuilt from scratch. A solve with no basis to
// reuse builds P2 with the batch builder and solves it cold, exactly as
// batch LPHTA does. Rounding and repair (Steps 2–6) run through the same
// roundAndRepair code as the batch LPHTA, so a ClusterState holding the
// same tasks as a batch run produces the same assignment.
//
// Departed tasks keep their (pinned, inert) LP columns until enough garbage
// accumulates, at which point the state compacts itself and the next solve
// rebuilds P2 cold. ClusterState is not safe for concurrent use; callers
// shard by station and lock per shard.
type ClusterState struct {
	m       *costmodel.Model
	station int
	opts    LPHTAOptions

	// inc holds P2 and the basis of the last optimal solve. It is nil
	// until the first Solve, after a compaction, and after a solve that
	// left no basis for the true bounds; the next Solve then builds P2
	// afresh.
	inc        *lp.Incremental
	slots      []clusterSlot
	slotOf     map[task.ID]int
	deviceRow  map[int]int // device id -> C2 row index, while inc exists
	stationRow int         // C3 row index, while inc exists
	live       int         // present, uncancelled tasks: the ones P2 holds
	dead       int         // removed slots not yet compacted away
}

// clusterSlot tracks one task ever added to the cluster. The task is stored
// by value: callers may keep their copy in a growing arena whose backing
// array moves.
type clusterSlot struct {
	t    task.Task
	opts costmodel.Options
	// hasLP marks a slot whose columns are live in inc: vars are its
	// device, station and cloud variables and c4 its convexity row.
	hasLP bool
	vars  [3]int
	c4    int
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
		m:         m,
		station:   station,
		opts:      opts,
		slotOf:    make(map[task.ID]int),
		deviceRow: make(map[int]int),
	}, nil
}

// Station returns the cluster's station index.
func (cs *ClusterState) Station() int { return cs.station }

// Len returns the number of present (non-removed) tasks, including
// cancelled ones.
func (cs *ClusterState) Len() int { return len(cs.slots) - cs.dead }

// Warm reports whether the next Solve can start from a previous basis. It
// is false before the first Solve, after a compaction, and after a solve
// that ended without an optimal basis for the true bounds.
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
// batch pre-cancellation. Everything else joins P2: while the state is warm
// the task gets three LP columns and a C4 convexity row at once (plus a C2
// capacity row the first time its device appears); otherwise the next
// Solve builds it in.
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
	cs.slots = append(cs.slots, clusterSlot{t: t})
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
	cs.join(si)
	return nil
}

// join counts slot si into P2, appending its columns and C4 row (and the
// C2 row for a device seen for the first time) to a warm state.
func (cs *ClusterState) join(si int) {
	cs.live++
	if cs.inc == nil {
		return
	}
	slot := &cs.slots[si]
	dev := slot.t.ID.User
	slot.c4 = cs.inc.AddRow(lp.EQ, 1)
	dr, ok := cs.deviceRow[dev]
	if !ok {
		dr = cs.inc.AddRow(lp.LE, cs.m.System().Devices[dev].ResourceCap)
		cs.deviceRow[dev] = dr
	}
	// Device columns enter the C4 and C2 rows, station columns the C4 and
	// C3 rows, cloud columns the C4 row only.
	r := slot.t.Resource
	rows := [3][]int{{slot.c4, dr}, {slot.c4, cs.stationRow}, {slot.c4}}
	vals := [3][]float64{{1, r}, {1, r}, {1}}
	bounds := taskBounds(&slot.t, slot.opts)
	for li, l := range costmodel.Subsystems {
		slot.vars[li] = cs.inc.AddVariable(float64(slot.opts.At(l).Energy), bounds[li], rows[li], vals[li])
	}
	slot.hasLP = true
}

// leave counts slot out of P2, pinning its columns and zeroing its
// convexity row in a warm state, which leaves inert structure behind.
func (cs *ClusterState) leave(slot *clusterSlot) {
	cs.live--
	if !slot.hasLP {
		return
	}
	for _, v := range slot.vars {
		cs.inc.SetUpper(v, 0)
	}
	cs.inc.SetRHS(slot.c4, 0)
	slot.hasLP = false
}

// RemoveTask retires a departed (or completed) task. Its LP columns are
// pinned to zero and its convexity row relaxed to Σx = 0, which keeps the
// basis warm; the state compacts once departed tasks outnumber live ones.
func (cs *ClusterState) RemoveTask(id task.ID) error {
	si, ok := cs.slotOf[id]
	if !ok || cs.slots[si].removed {
		return fmt.Errorf("core: task %v not present", id)
	}
	slot := &cs.slots[si]
	slot.removed = true
	if !slot.cancelled {
		cs.leave(slot)
	}
	cs.dead++
	cs.maybeCompact()
	return nil
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
	switch feasible := feasibleAnywhere(&slot.t, slot.opts); {
	case !feasible && !slot.cancelled:
		slot.cancelled = true
		cs.opts.Obs.Counter("lphta.pre_cancelled").Inc()
		cs.leave(slot)
	case feasible && slot.cancelled:
		slot.cancelled = false
		cs.join(si)
	case feasible && slot.hasLP:
		bounds := taskBounds(&slot.t, slot.opts)
		for li, v := range slot.vars {
			cs.inc.SetUpper(v, bounds[li])
		}
	}
	return nil
}

// maybeCompact drops departed slots and the LP once they outnumber live
// tasks (and there are enough of them to matter); the next Solve rebuilds
// P2 cold from the survivors.
func (cs *ClusterState) maybeCompact() {
	if cs.dead <= 16 || cs.dead <= cs.live {
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
	for si := range cs.slots {
		cs.slotOf[cs.slots[si].t.ID] = si
	}
	cs.dead = 0
	cs.dropLP()
}

// dropLP discards P2 and its basis; the next Solve rebuilds both.
func (cs *ClusterState) dropLP() {
	cs.inc = nil
	for si := range cs.slots {
		cs.slots[si].hasLP = false
	}
}

// buildLP builds P2 over the live tasks with the batch builder and seats
// it in a fresh lp.Incremental. sis maps each of cts to its slot.
func (cs *ClusterState) buildLP(cts []clusterTask, sis []int) error {
	p, devices := buildP2(cs.m.System(), cs.station, cts, cs.opts.Obs)
	inc, err := lp.NewIncremental(p)
	if err != nil {
		return err
	}
	cs.inc = inc
	clear(cs.deviceRow)
	for k, dev := range devices {
		cs.deviceRow[dev] = len(cts) + k
	}
	cs.stationRow = len(cts) + len(devices)
	for i, si := range sis {
		slot := &cs.slots[si]
		slot.c4 = i
		slot.vars = [3]int{3 * i, 3*i + 1, 3*i + 2}
		slot.hasLP = true
	}
	return nil
}

// Solve re-solves the cluster (warm when possible) and runs rounding and
// repair, returning the cluster's assignment and Theorem 2 quantities. The
// batch infeasibility fallback applies unchanged; a solve that needed it
// leaves no basis for the true bounds, so the next Solve starts cold.
func (cs *ClusterState) Solve() (*ClusterResult, error) {
	res := &ClusterResult{}
	cts := make([]clusterTask, 0, cs.live)
	sis := make([]int, 0, cs.live)
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
		if cs.inc == nil {
			if err := cs.buildLP(cts, sis); err != nil {
				return nil, fmt.Errorf("core: cluster %d: %w", cs.station, err)
			}
		}
		sol, lifted, err := solveP2(cs.station, cts, cs.opts.Obs,
			func() (*lp.Solution, error) { return cs.inc.Resolve(cs.opts.Obs) },
			func(i, li int) { cs.inc.SetUpper(cs.slots[sis[i]].vars[li], 1) })
		if err != nil || lifted {
			cs.dropLP()
		}
		if err != nil {
			return nil, fmt.Errorf("core: cluster %d: %w", cs.station, err)
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
