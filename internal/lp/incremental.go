package lp

import (
	"errors"
	"fmt"
	"math"

	"dsmec/internal/obs"
)

// errWarmFallback signals that a warm-started re-solve could not be
// completed safely (singular basis, numerically hostile pivot, dual
// unboundedness within tolerance) and the caller should rebuild cold.
// It never escapes Incremental.Resolve.
var errWarmFallback = errors.New("lp: warm start abandoned")

// Incremental maintains a linear program together with the solver state
// of its last optimal solve, so that small mutations — appended
// variables and rows, bound and right-hand-side changes — re-solve warm
// from the previous optimal basis instead of from scratch.
//
// The supported mutations deliberately exclude objective changes:
// bounds and right-hand sides perturb only primal feasibility, so the
// previous basis stays dual feasible and a dual-simplex phase (plus a
// short primal cleanup for any appended columns) restores optimality in
// a handful of pivots. Appended columns that price dual-infeasible are
// bound-flipped to their finite upper bound; a dual-infeasible column
// with an infinite upper bound forces a cold rebuild instead. Any
// numerically suspect step — a singular refreshed basis, a pivot below
// tolerance, an iteration-limit overrun — also falls back to a cold
// solve of the current problem, so Resolve never trades correctness for
// warmth.
//
// Removal is modeled by pinning: fix the variable at zero with
// SetUpper(j, 0) (and zero any now-trivial row with SetRHS). Pinned
// columns are skipped by pricing, so they cost nothing per iteration;
// callers that accumulate many dead columns can rebuild a compact
// Incremental from live data at their own cadence.
//
// Warm starts are exactly the reuse of the revised simplex's
// LU-factorized basis. Incremental is not safe for concurrent use.
type Incremental struct {
	minimize []float64
	cons     []Constraint // all rows in sparse form
	upper    []float64    // materialized (+Inf when absent)

	s      *rsimplex // end state of the last optimal solve (nil otherwise)
	varCol []int     // variable -> solver column
}

// NewIncremental captures a deep copy of p as the starting problem. The
// problem must validate and have at least one variable.
func NewIncremental(p *Problem) (*Incremental, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumVars()
	inc := &Incremental{
		minimize: append([]float64(nil), p.Minimize...),
		upper:    make([]float64, n),
	}
	for j := range inc.upper {
		inc.upper[j] = math.Inf(1)
	}
	copy(inc.upper, p.Upper)
	inc.cons = make([]Constraint, len(p.Constraints))
	for i := range p.Constraints {
		inc.cons[i] = sparseCopy(&p.Constraints[i])
	}
	return inc, nil
}

// sparseCopy deep-copies a constraint into sparse form.
func sparseCopy(c *Constraint) Constraint {
	out := Constraint{Sense: c.Sense, RHS: c.RHS}
	if c.Cols != nil {
		out.Cols = append([]int{}, c.Cols...)
		out.Coeffs = append([]float64{}, c.Coeffs...)
		return out
	}
	out.Cols = []int{}
	out.Coeffs = []float64{}
	for j, a := range c.Coeffs {
		if a != 0 {
			out.Cols = append(out.Cols, j)
			out.Coeffs = append(out.Coeffs, a)
		}
	}
	return out
}

// NumVars returns the current variable count.
func (inc *Incremental) NumVars() int { return len(inc.minimize) }

// NumRows returns the current constraint count.
func (inc *Incremental) NumRows() int { return len(inc.cons) }

// Problem returns the current effective problem as a live view: it
// shares backing arrays with the Incremental and is valid until the
// next mutation. Cold cross-check solves and fallback rebuilds both
// read it.
func (inc *Incremental) Problem() *Problem {
	return &Problem{
		Minimize:    inc.minimize,
		Constraints: inc.cons,
		Upper:       inc.upper,
	}
}

// solverLive reports whether warm state exists and is safe to mutate
// in place. Non-optimal solves drop their state, so a live solver is
// always the end state of an optimal one.
func (inc *Incremental) solverLive() bool { return inc.s != nil }

func (inc *Incremental) dropSolver() { inc.s = nil }

// AddRow appends a constraint with no coefficients yet and returns its
// row index. Coefficients reach the row through subsequent AddVariable
// calls — the arrival pattern the daemon needs (a new task brings a new
// assignment row plus the columns that populate it). The RHS is taken
// as-is (no sign normalization); a warm re-solve seats the row's slack
// or pinned artificial basically and lets the dual phase repair it.
func (inc *Incremental) AddRow(sense Sense, rhs float64) int {
	if sense != LE && sense != GE && sense != EQ {
		panic(fmt.Sprintf("lp: AddRow: invalid sense %d", int(sense)))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: AddRow: non-finite rhs %g", rhs))
	}
	i := len(inc.cons)
	inc.cons = append(inc.cons, Constraint{Cols: []int{}, Coeffs: []float64{}, Sense: sense, RHS: rhs})
	if !inc.solverLive() {
		return i
	}
	inc.s.appendRow(sense, rhs)
	return i
}

// AddVariable appends a variable with the given objective cost, upper
// bound, and sparse column (vals[k] in row rows[k]), returning its
// index. Rows may be original or appended; each row index may appear
// once. The new column starts nonbasic at zero, so the previous basis
// stays primal-consistent; if it prices dual-infeasible the next warm
// Resolve bound-flips it (finite upper) or rebuilds cold.
func (inc *Incremental) AddVariable(cost, upper float64, rows []int, vals []float64) int {
	if len(rows) != len(vals) {
		panic(fmt.Sprintf("lp: AddVariable: %d rows for %d values", len(rows), len(vals)))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("lp: AddVariable: non-finite cost %g", cost))
	}
	if math.IsNaN(upper) || upper < 0 {
		panic(fmt.Sprintf("lp: AddVariable: invalid upper bound %g", upper))
	}
	for k, i := range rows {
		if i < 0 || i >= len(inc.cons) {
			panic(fmt.Sprintf("lp: AddVariable: row %d of %d", i, len(inc.cons)))
		}
		if math.IsNaN(vals[k]) || math.IsInf(vals[k], 0) {
			panic(fmt.Sprintf("lp: AddVariable: non-finite coefficient %g", vals[k]))
		}
	}
	v := len(inc.minimize)
	inc.minimize = append(inc.minimize, cost)
	inc.upper = append(inc.upper, upper)
	for k, i := range rows {
		if vals[k] == 0 {
			continue
		}
		inc.cons[i].Cols = append(inc.cons[i].Cols, v)
		inc.cons[i].Coeffs = append(inc.cons[i].Coeffs, vals[k])
	}
	if !inc.solverLive() {
		return v
	}
	s := inc.s
	if s.colVar == nil {
		// Columns stop being a variable prefix now; materialize the map.
		s.colVar = make([]int, s.n)
		for j := range s.colVar {
			s.colVar[j] = -1
		}
		for j := 0; j < s.nStruct; j++ {
			s.colVar[j] = j
		}
	}
	// Apply the stored sign normalization of each target row.
	adj := make([]float64, len(vals))
	for k, i := range rows {
		adj[k] = vals[k]
		if s.rowNeg[i] {
			adj[k] = -vals[k]
		}
	}
	col := s.appendColumn(rows, adj, cost, upper, atLower)
	s.colVar[col] = v
	inc.varCol = append(inc.varCol, col)
	return v
}

// SetUpper changes variable j's upper bound (math.Inf(1) clears it;
// 0 pins the variable). The previous basis stays dual feasible; the
// next Resolve repairs any primal violation with dual pivots.
func (inc *Incremental) SetUpper(j int, u float64) {
	if j < 0 || j >= len(inc.minimize) {
		panic(fmt.Sprintf("lp: SetUpper: variable %d of %d", j, len(inc.minimize)))
	}
	if math.IsNaN(u) || u < 0 {
		panic(fmt.Sprintf("lp: SetUpper: invalid upper bound %g", u))
	}
	inc.upper[j] = u
	if !inc.solverLive() {
		return
	}
	s := inc.s
	col := inc.varCol[j]
	s.upper[col] = u
	// A variable resting at an upper bound that collapsed to zero is
	// equivalently at its lower bound; normalize so pricing and value
	// recomputation treat pinned columns uniformly.
	if u == 0 && s.status[col] == atUpper {
		s.status[col] = atLower
	}
}

// SetRHS changes row i's right-hand side. Senses are fixed at AddRow
// time; the stored sign normalization of original rows is reapplied.
func (inc *Incremental) SetRHS(i int, rhs float64) {
	if i < 0 || i >= len(inc.cons) {
		panic(fmt.Sprintf("lp: SetRHS: row %d of %d", i, len(inc.cons)))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		panic(fmt.Sprintf("lp: SetRHS: non-finite rhs %g", rhs))
	}
	inc.cons[i].RHS = rhs
	if !inc.solverLive() {
		return
	}
	if inc.s.rowNeg[i] {
		rhs = -rhs
	}
	inc.s.b[i] = rhs
}

// Resolve solves the current problem, warm when the previous solve left
// a reusable optimal basis and cold otherwise. Warm solves are
// cross-checkable: they produce the same status and (within 1e-9) the
// same objective as a cold solve of Problem(). Metrics
// and a trace span are recorded into ins.
func (inc *Incremental) Resolve(ins obs.Instruments) (*Solution, error) {
	span := ins.Span.Child("lp.resolve")
	defer span.End()
	reg := ins.Registry()
	reg.Counter("lp.resolves").Inc()
	timer := obs.StartTimer()

	if inc.solverLive() {
		sol, err := inc.warmResolve(ins, span)
		if err == nil {
			reg.Counter("lp.resolves.warm").Inc()
			inc.recordResolve(span, reg, sol, timer.Seconds())
			return sol, nil
		}
		if !errors.Is(err, errWarmFallback) {
			inc.dropSolver()
			return nil, err
		}
		reg.Counter("lp.resolves.cold_fallback").Inc()
		inc.dropSolver()
	} else {
		reg.Counter("lp.resolves.cold").Inc()
	}

	sol, err := inc.coldSolve(ins, span)
	if err != nil {
		return nil, err
	}
	inc.recordResolve(span, reg, sol, timer.Seconds())
	return sol, nil
}

// recordResolve publishes one resolve's outcome.
func (inc *Incremental) recordResolve(span *obs.Span, reg *obs.Registry, sol *Solution, seconds float64) {
	reg.Counter("lp.pivots").Add(int64(sol.Stats.Pivots))
	reg.Counter("lp.dual_pivots").Add(int64(sol.Stats.DualPivots))
	reg.Counter("lp.bound_flips").Add(int64(sol.Stats.BoundFlips))
	reg.Histogram("lp.resolve_seconds", obs.TimeBuckets).Observe(seconds)
	reg.Histogram("lp.resolve_pivots", obs.CountBuckets).Observe(float64(sol.Stats.Pivots))
	if span != nil {
		span.Annotate("warm", sol.Warm)
		span.Annotate("status", sol.Status.String())
		span.Annotate("vars", inc.NumVars())
		span.Annotate("constraints", inc.NumRows())
		span.Annotate("pivots", sol.Stats.Pivots)
		span.Annotate("dual_pivots", sol.Stats.DualPivots)
	}
}

// coldSolve rebuilds solver state from the mirror problem and runs the
// ordinary two-phase solve, retaining the end state for future warm
// starts when it ends Optimal.
func (inc *Incremental) coldSolve(ins obs.Instruments, span *obs.Span) (*Solution, error) {
	p := inc.Problem()
	log := ins.Logger()
	s := newRevised(p)
	s.log = log
	if err := s.factor(); err != nil {
		inc.dropSolver()
		return nil, err
	}
	sol, err := s.solveFull(inc.minimize, span, log)
	if err != nil {
		inc.dropSolver()
		return nil, err
	}
	if sol.Status != Optimal {
		inc.dropSolver()
		return sol, nil
	}
	inc.s = s
	inc.varCol = inc.varCol[:0]
	for v := range inc.minimize {
		inc.varCol = append(inc.varCol, v)
	}
	return sol, nil
}

// warmResolve re-solves from the previous optimal basis: refresh the LU
// factors, restore dual feasibility by bound-flipping any appended
// column that prices wrong-side, recompute the basic values under the
// current bounds and right-hand sides, drive out primal infeasibility
// with dual-simplex pivots, and finish with a primal cleanup pass. Any
// trouble returns errWarmFallback and the caller rebuilds cold.
func (inc *Incremental) warmResolve(ins obs.Instruments, span *obs.Span) (*Solution, error) {
	s := inc.s
	s.log = ins.Logger()
	s.stats = SolveStats{}
	s.iterations = 0
	timer := obs.StartTimer()

	if err := s.factor(); err != nil {
		return nil, errWarmFallback
	}
	// Mutations never touch costs or the basis, so only columns appended
	// since the last solve can price dual-infeasible. Flipping such a
	// column to its finite opposite bound restores dual feasibility
	// without a pivot; an unflippable (unbounded) column forces a cold
	// rebuild. The 1e-7 threshold ignores factorization drift on old
	// columns — the primal cleanup pass sweeps up anything that small.
	const dualTol = 1e-7
	s.btranCosts()
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == basic || s.upper[j] == 0 {
			continue
		}
		d := s.cost[j]
		rows, vals := s.column(j)
		for k, i := range rows {
			d -= s.y[i] * vals[k]
		}
		if st == atLower && d < -dualTol {
			if math.IsInf(s.upper[j], 1) {
				return nil, errWarmFallback
			}
			s.status[j] = atUpper
			s.stats.BoundFlips++
		} else if st == atUpper && d > dualTol {
			s.status[j] = atLower
			s.stats.BoundFlips++
		}
	}
	s.recomputeValues()

	dSpan := span.Child("lp.dual")
	err := s.dualSimplex()
	dSpan.Annotate("pivots", s.stats.DualPivots)
	dSpan.End()
	if err != nil {
		return nil, err
	}
	if err := s.run(s.n); err != nil {
		return nil, errWarmFallback
	}
	s.stats.Phase2Iterations = s.iterations
	s.stats.Phase2Seconds = timer.Seconds()

	x, obj := s.extract(inc.minimize)
	return &Solution{
		Status:     Optimal,
		X:          x,
		Objective:  obj,
		Iterations: s.iterations,
		Warm:       true,
		Stats:      s.stats,
	}, nil
}

// appendRow grows the solver by one constraint row, seating a fresh
// basic column for it: a slack for ≤, a pinned artificial for = and ≥
// (the latter also gets its surplus column). The extended basis matrix
// is block-triangular — old basis, zero block, unit diagonal — so it
// stays nonsingular and the next refactorization accepts it.
func (s *rsimplex) appendRow(sense Sense, rhs float64) {
	i := s.m
	s.m++
	s.b = append(s.b, rhs)
	s.rowNeg = append(s.rowNeg, false)
	var bcol int
	switch sense {
	case LE:
		bcol = s.appendColumn([]int{i}, []float64{1}, 0, math.Inf(1), basic)
	case GE:
		s.appendColumn([]int{i}, []float64{-1}, 0, math.Inf(1), atLower)
		bcol = s.appendColumn([]int{i}, []float64{1}, 0, 0, basic)
	default: // EQ
		bcol = s.appendColumn([]int{i}, []float64{1}, 0, 0, basic)
	}
	s.basis = append(s.basis, bcol)
	s.value = append(s.value, rhs)
	s.w = append(s.w, 0)
	s.y = append(s.y, 0)
	s.cb = append(s.cb, 0)
	s.rhsDense = append(s.rhsDense, 0)
}

// appendColumn adds one column to the sparse matrix and returns its
// index. Zero coefficients are dropped, matching the initial build.
func (s *rsimplex) appendColumn(rows []int, vals []float64, cost, upper float64, st varStatus) int {
	j := s.n
	for k, i := range rows {
		if vals[k] == 0 {
			continue
		}
		s.colRow = append(s.colRow, i)
		s.colVal = append(s.colVal, vals[k])
	}
	s.colPtr = append(s.colPtr, len(s.colRow))
	s.cost = append(s.cost, cost)
	s.upper = append(s.upper, upper)
	s.status = append(s.status, st)
	if s.colVar != nil {
		s.colVar = append(s.colVar, -1)
	}
	s.n++
	return j
}

// dualSimplex restores primal feasibility while preserving dual
// feasibility: each iteration evicts the basic variable with the worst
// bound violation and brings in the nonbasic column whose reduced cost
// reaches zero first along the dual ray (the bounded-variable dual
// ratio test). It is the warm-start counterpart of phase 1 — a new
// task's pinned artificial leaves the basis here, which is why one
// arrival costs a handful of pivots rather than a fresh two-phase
// solve. Ties take the first candidate in scan order, keeping re-solves
// deterministic.
func (s *rsimplex) dualSimplex() error {
	const feasTol = 1e-7
	limit := 2000 * (s.m + s.n + 1)
	rho := make([]float64, s.m)
	pos := make([]float64, s.m)

	for iter := 0; iter < limit; iter++ {
		// Leaving: largest bound violation among the basic values.
		r := -1
		worst := feasTol
		above := false
		for i := 0; i < s.m; i++ {
			v := s.value[i]
			viol := -v
			isAbove := false
			if ub := s.upper[s.basis[i]]; !math.IsInf(ub, 1) {
				if over := v - ub; over > viol {
					viol, isAbove = over, true
				}
			}
			if viol > worst {
				worst, r, above = viol, i, isAbove
			}
		}
		if r < 0 {
			return nil // primal feasible
		}

		// ρ = row r of B⁻¹: unit vector through the eta transposes in
		// reverse, then the LU transpose solve. α_j = ρ·A_j is the pivot
		// row entry of each column.
		for i := range pos {
			pos[i] = 0
		}
		pos[r] = 1
		for t := len(s.etas) - 1; t >= 0; t-- {
			e := &s.etas[t]
			acc := pos[e.r]
			for k, i := range e.idx {
				acc -= e.val[k] * pos[i]
			}
			pos[e.r] = acc / e.wr
		}
		s.lu.btran(rho, pos)
		s.btranCosts() // duals for the ratio test

		// Entering: among columns whose movement pushes x_r toward its
		// violated bound, the one whose reduced cost hits zero first.
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < s.n; j++ {
			st := s.status[j]
			if st == basic || s.upper[j] == 0 {
				continue
			}
			alpha := 0.0
			d := s.cost[j]
			for t, end := s.colPtr[j], s.colPtr[j+1]; t < end; t++ {
				i := s.colRow[t]
				alpha += rho[i] * s.colVal[t]
				d -= s.y[i] * s.colVal[t]
			}
			var ok bool
			if above {
				ok = (st == atLower && alpha > pivotEps) || (st == atUpper && alpha < -pivotEps)
			} else {
				ok = (st == atLower && alpha < -pivotEps) || (st == atUpper && alpha > pivotEps)
			}
			if !ok {
				continue
			}
			mag := d
			if st == atUpper {
				mag = -d
			}
			if mag < 0 {
				mag = 0 // dual-feasible within tolerance; clamp drift
			}
			if ratio := mag / math.Abs(alpha); ratio < bestRatio {
				bestRatio, enter = ratio, j
			}
		}
		if enter < 0 {
			// Dual ray with no blocking column: the primal is infeasible
			// (or numerics have degraded); let the cold path classify it.
			return errWarmFallback
		}

		s.ftranColumn(s.w, enter)
		wr := s.w[r]
		if math.Abs(wr) <= pivotEps {
			return errWarmFallback
		}
		bound := 0.0
		if above {
			bound = s.upper[s.basis[r]]
		}
		// The entering variable moves by delta off its bound; position r
		// lands exactly on the violated bound.
		delta := (s.value[r] - bound) / wr
		enterValue := 0.0
		if s.status[enter] == atUpper {
			enterValue = s.upper[enter]
		}
		for i := 0; i < s.m; i++ {
			if i != r {
				s.value[i] -= s.w[i] * delta
			}
		}
		leaving := s.basis[r]
		if above {
			s.status[leaving] = atUpper
		} else {
			s.status[leaving] = atLower
		}
		s.value[r] = enterValue + delta
		s.status[enter] = basic
		s.stats.DualPivots++
		if delta < eps && delta > -eps {
			s.stats.DegeneratePivots++
		}
		if err := s.pivot(r, enter); err != nil {
			return errWarmFallback
		}
	}
	return errWarmFallback // iteration limit; rebuild cold
}
