package lp

import (
	"errors"
	"fmt"
	"math"

	"dsmec/internal/obs"
)

// refactorInterval bounds the eta file: after this many product-form
// updates the basis is refactorized from scratch and the basic values are
// recomputed from the original right-hand side, keeping both the factors
// and the iterate numerically fresh. ~50 is the classic compromise: long
// enough to amortize the factorization, short enough that eta roundoff
// never accumulates into wrong pivot decisions.
const refactorInterval = 50

// etaVec is one product-form basis update: after a pivot that replaced
// basis position r with the entering column whose FTRAN image was w, the
// new basis inverse is E⁻¹B⁻¹ where E is the identity with column r
// replaced by w. Only the nonzeros of w are kept.
type etaVec struct {
	r   int     // basis position replaced by the pivot
	wr  float64 // w[r], the pivot element (|wr| > pivotEps by ratio test)
	idx []int   // other positions with nonzero w
	val []float64
}

// rsimplex is the bounded-variable revised simplex, the package's only
// solver. It keeps the constraint matrix in sparse column form and only
// the basis in factorized form; iterations run BTRAN to price and FTRAN
// to pivot, so the O(rows×cols) dense tableau is never materialized.
// Row/column bookkeeping (status, basis, value) matches the dense tableau
// oracle in the tests — position k here plays the role of tableau row k.
type rsimplex struct {
	m, n     int // rows, total columns
	nStruct  int // structural variable count
	nArt     int // artificial count
	artStart int // first artificial column

	// A over all columns (structural, slack/surplus, artificial) in
	// compressed sparse column form, RHS-sign normalized like the dense
	// tableau's rows.
	colPtr []int
	colRow []int
	colVal []float64

	b      []float64   // normalized RHS ≥ 0, row space
	rowNeg []bool      // rows negated by RHS-sign normalization
	upper  []float64   // per-column upper bound (+Inf when absent)
	status []varStatus // per-column location
	basis  []int       // basis[k] = column basic at position k
	value  []float64   // value[k] = current value of basis[k]

	// colVar maps solver columns back to problem variables (-1 for
	// slack/artificial columns). nil means the original prefix layout:
	// variables are exactly columns [0, nStruct). Incremental solves
	// materialize it once columns stop being a prefix.
	colVar []int

	lu   *luFactors
	etas []etaVec
	log  *obs.Logger // refactorization debug records (nil disables)

	cost []float64 // current phase costs

	// Per-solve scratch.
	w        []float64 // FTRAN of the entering column, position space
	y        []float64 // BTRAN duals, row space
	cb       []float64 // basis costs, position space
	rhsDense []float64 // row space, for value recomputation
	rhsRows  []int
	rhsVals  []float64

	iterations int
	stats      SolveStats
}

// newRevised lowers p into bounded standard form with a sparse
// column-major matrix. The classification, signs, and initial
// slack/artificial basis are identical to newTableau's.
func newRevised(p *Problem) *rsimplex {
	n := p.NumVars()
	cons := p.Constraints
	m := len(cons)
	kinds, nSlack, nArt := classifyRows(cons)

	s := &rsimplex{
		m:        m,
		n:        n + nSlack + nArt,
		nStruct:  n,
		nArt:     nArt,
		artStart: n + nSlack,
	}

	// Two-pass CSC build: count entries per column, then fill. Explicit
	// zeros in dense rows are dropped — they scatter to zero anyway.
	counts := make([]int, s.n)
	for _, c := range cons {
		if c.Cols != nil {
			for k, j := range c.Cols {
				if c.Coeffs[k] != 0 {
					counts[j]++
				}
			}
			continue
		}
		for j, a := range c.Coeffs {
			if a != 0 {
				counts[j]++
			}
		}
	}
	for j := n; j < s.n; j++ {
		counts[j] = 1 // slack and artificial unit columns
	}
	s.colPtr = make([]int, s.n+1)
	for j := 0; j < s.n; j++ {
		s.colPtr[j+1] = s.colPtr[j] + counts[j]
	}
	nnz := s.colPtr[s.n]
	s.colRow = make([]int, nnz)
	s.colVal = make([]float64, nnz)
	next := make([]int, s.n)
	copy(next, s.colPtr[:s.n])
	put := func(i, j int, v float64) {
		s.colRow[next[j]] = i
		s.colVal[next[j]] = v
		next[j]++
	}

	s.b = make([]float64, m)
	s.rowNeg = make([]bool, m)
	for i := range kinds {
		s.rowNeg[i] = kinds[i].neg
	}
	s.basis = make([]int, m)
	s.value = make([]float64, m)
	s.upper = make([]float64, s.n)
	s.status = make([]varStatus, s.n)
	for j := range s.upper {
		s.upper[j] = math.Inf(1)
	}
	for j, u := range p.Upper {
		s.upper[j] = u
	}

	slackCol, artCol := n, n+nSlack
	for i, c := range cons {
		sign := 1.0
		if kinds[i].neg {
			sign = -1
		}
		if c.Cols != nil {
			for k, j := range c.Cols {
				if v := sign * c.Coeffs[k]; v != 0 {
					put(i, j, v)
				}
			}
		} else {
			for j, a := range c.Coeffs {
				if v := sign * a; v != 0 {
					put(i, j, v)
				}
			}
		}
		s.b[i] = sign * c.RHS

		switch kinds[i].sense {
		case LE:
			put(i, slackCol, 1)
			s.basis[i] = slackCol
			slackCol++
		case GE:
			put(i, slackCol, -1)
			slackCol++
			put(i, artCol, 1)
			s.basis[i] = artCol
			artCol++
		case EQ:
			put(i, artCol, 1)
			s.basis[i] = artCol
			artCol++
		}
		s.value[i] = s.b[i]
		s.status[s.basis[i]] = basic
	}

	s.cost = make([]float64, s.n)
	s.w = make([]float64, m)
	s.y = make([]float64, m)
	s.cb = make([]float64, m)
	s.rhsDense = make([]float64, m)
	s.rhsRows = make([]int, 0, m)
	s.rhsVals = make([]float64, 0, m)
	return s
}

// column returns the sparse CSC slice of column j.
func (s *rsimplex) column(j int) (rows []int, vals []float64) {
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	return s.colRow[lo:hi], s.colVal[lo:hi]
}

// factor (re)computes the LU factors of the current basis and clears the
// eta file.
func (s *rsimplex) factor() error {
	lu, err := factorBasis(s.m, func(p int) ([]int, []float64) {
		return s.column(s.basis[p])
	})
	if err != nil {
		return fmt.Errorf("lp: basis factorization: %w", err)
	}
	s.lu = lu
	s.etas = s.etas[:0]
	return nil
}

// refactor refreshes the factorization mid-solve and recomputes the
// basic values from the original right-hand side, discarding the
// incremental update drift: x_B = B⁻¹(b − Σ_{j at upper} u_j·A_j).
func (s *rsimplex) refactor() error {
	etas := len(s.etas)
	if err := s.factor(); err != nil {
		return err
	}
	s.stats.Refactorizations++
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("lp refactorization",
			"number", s.stats.Refactorizations,
			"pivots", s.stats.Pivots,
			"etas_dropped", etas)
	}
	s.recomputeValues()
	return nil
}

// recomputeValues rebuilds the basic values from the original right-hand
// side against the current (freshly factorized, eta-free) basis:
// x_B = B⁻¹(b − Σ_{j at upper} u_j·A_j).
func (s *rsimplex) recomputeValues() {
	copy(s.rhsDense, s.b)
	for j := 0; j < s.n; j++ {
		if s.status[j] != atUpper {
			continue
		}
		u := s.upper[j]
		if u == 0 {
			continue
		}
		rows, vals := s.column(j)
		for t, i := range rows {
			s.rhsDense[i] -= u * vals[t]
		}
	}
	s.rhsRows, s.rhsVals = s.rhsRows[:0], s.rhsVals[:0]
	for i, v := range s.rhsDense {
		if v != 0 {
			s.rhsRows = append(s.rhsRows, i)
			s.rhsVals = append(s.rhsVals, v)
		}
	}
	s.lu.ftran(s.value, s.rhsRows, s.rhsVals)
}

// ftranColumn computes w = B⁻¹A_j into dst (position space): the LU
// solve followed by the eta file in application order.
func (s *rsimplex) ftranColumn(dst []float64, j int) {
	rows, vals := s.column(j)
	s.lu.ftran(dst, rows, vals)
	for t := range s.etas {
		e := &s.etas[t]
		tr := dst[e.r] / e.wr
		dst[e.r] = tr
		if tr == 0 {
			continue
		}
		for k, i := range e.idx {
			dst[i] -= e.val[k] * tr
		}
	}
}

// btranCosts computes the duals y = B⁻ᵀc_B into s.y (row space): the eta
// transposes in reverse order, then the LU transpose solve.
func (s *rsimplex) btranCosts() {
	for k, bcol := range s.basis {
		s.cb[k] = s.cost[bcol]
	}
	for t := len(s.etas) - 1; t >= 0; t-- {
		e := &s.etas[t]
		acc := s.cb[e.r]
		for k, i := range e.idx {
			acc -= e.val[k] * s.cb[i]
		}
		s.cb[e.r] = acc / e.wr
	}
	s.lu.btran(s.y, s.cb)
}

// setCosts installs the phase objective.
func (s *rsimplex) setCosts(minimize []float64, phase1 bool) {
	s.stats.ObjectiveInstalls++
	for j := range s.cost {
		s.cost[j] = 0
	}
	if phase1 {
		for j := s.artStart; j < s.n; j++ {
			s.cost[j] = 1
		}
		return
	}
	copy(s.cost, minimize)
}

// pivot installs the entering column at basis position leave: either a
// product-form eta recorded from the FTRAN image in s.w, or — once the
// eta file is full — a fresh factorization of the updated basis.
func (s *rsimplex) pivot(leave, enter int) error {
	s.basis[leave] = enter
	s.iterations++
	s.stats.Pivots++
	if len(s.etas) >= refactorInterval {
		return s.refactor()
	}
	e := etaVec{r: leave, wr: s.w[leave]}
	for i, v := range s.w {
		if i != leave && v != 0 {
			e.idx = append(e.idx, i)
			e.val = append(e.val, v)
		}
	}
	s.etas = append(s.etas, e)
	s.stats.EtaVectors++
	return nil
}

// run iterates the bounded-variable revised simplex until optimality
// (nil), unboundedness (errUnbounded), or the iteration limit. Columns
// j < maxCol are priced (phase 1 allows everything, phase 2 stops at
// artStart — allowed columns are always a prefix). Columns fixed at zero
// (upper bound 0: unreachable subsystems, pinned artificials, variables
// an incremental solve removed) can never change the solution, so
// pricing skips them. The ratio test, degeneracy escalation to Bland's
// rule, and tie-breaking match the dense tableau oracle in the tests.
func (s *rsimplex) run(maxCol int) error {
	limit := 2000 * (s.m + s.n + 1)
	degenerate := 0
	useBland := false
	// Hoisted for the pricing loop, the per-iteration hot path: d_j =
	// c_j − y·A_j over the CSC column, with slice headers lifted out so
	// the inner dot product stays bounds-check free.
	colPtr, colRow, colVal := s.colPtr, s.colRow, s.colVal
	cost, status, y := s.cost, s.status, s.y
	upper := s.upper

	for iter := 0; iter < limit; iter++ {
		s.btranCosts()

		// Pricing: a variable at lower enters increasing when its reduced
		// cost is negative; one at upper enters decreasing when positive.
		enter := -1
		sigma := 1.0
		if useBland {
			for j := 0; j < maxCol; j++ {
				st := status[j]
				if st == basic || upper[j] == 0 {
					continue
				}
				d := cost[j]
				for t, end := colPtr[j], colPtr[j+1]; t < end; t++ {
					d -= y[colRow[t]] * colVal[t]
				}
				if st == atLower && d < -eps {
					enter, sigma = j, 1
					break
				}
				if st == atUpper && d > eps {
					enter, sigma = j, -1
					break
				}
			}
		} else {
			best := eps
			for j := 0; j < maxCol; j++ {
				st := status[j]
				if st == basic || upper[j] == 0 {
					continue
				}
				d := cost[j]
				for t, end := colPtr[j], colPtr[j+1]; t < end; t++ {
					d -= y[colRow[t]] * colVal[t]
				}
				var viol float64
				if st == atLower {
					viol = -d
				} else {
					viol = d
				}
				if viol > best {
					best = viol
					enter = j
					if st == atLower {
						sigma = 1
					} else {
						sigma = -1
					}
				}
			}
		}
		if enter < 0 {
			return nil // optimal
		}

		s.ftranColumn(s.w, enter)

		// Ratio test: the entering variable moves by step ≥ 0 in
		// direction sigma; the basic variable at position i changes by
		// -sigma·w_i·step.
		step := s.upper[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveAt := atLower
		for i := 0; i < s.m; i++ {
			a := sigma * s.w[i]
			switch {
			case a > pivotEps: // basic value falls toward 0
				r := s.value[i] / a
				if r < step+eps && r >= step-eps && leave >= 0 {
					s.stats.RatioTestTies++
				}
				if r < step-eps ||
					(r < step+eps && (leave < 0 || s.basis[i] < s.basis[leave])) {
					step, leave, leaveAt = r, i, atLower
				}
			case a < -pivotEps: // basic value rises toward its bound
				ub := s.upper[s.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				r := (ub - s.value[i]) / -a
				if r < step+eps && r >= step-eps && leave >= 0 {
					s.stats.RatioTestTies++
				}
				if r < step-eps ||
					(r < step+eps && (leave < 0 || s.basis[i] < s.basis[leave])) {
					step, leave, leaveAt = r, i, atUpper
				}
			}
		}
		if math.IsInf(step, 1) {
			return errUnbounded
		}
		if step < 0 {
			step = 0 // numerical guard: never move backwards
		}

		if step < eps {
			degenerate++
			s.stats.DegeneratePivots++
			if degenerate > s.m+s.n {
				if !useBland {
					s.stats.BlandSwitches++
				}
				useBland = true
			}
		} else {
			degenerate = 0
			useBland = false
		}

		if leave < 0 {
			// Bound flip: the entering variable crosses to its other
			// bound without any basis change.
			for i := 0; i < s.m; i++ {
				s.value[i] -= sigma * s.w[i] * step
			}
			if s.status[enter] == atLower {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
			s.iterations++
			s.stats.BoundFlips++
			continue
		}

		// Basis change: update values, then swap the basis column.
		enterValue := 0.0
		if s.status[enter] == atUpper {
			enterValue = s.upper[enter]
		}
		for i := 0; i < s.m; i++ {
			if i == leave {
				continue
			}
			s.value[i] -= sigma * s.w[i] * step
		}
		leaving := s.basis[leave]
		s.status[leaving] = leaveAt
		s.value[leave] = enterValue + sigma*step
		s.status[enter] = basic
		if err := s.pivot(leave, enter); err != nil {
			return err
		}
	}
	return ErrIterationLimit
}

// solveCold lowers p, runs the two phases on the factorized basis under
// an lp.solve span, and publishes the outcome through record. It is the
// only cold solve: SolveObserved returns its solution, and Incremental
// also keeps the returned end state as the basis for warm re-solves.
//
// Where the dense tableau oracle in the tests drives leftover
// artificials out of the basis and retires redundant rows, the revised
// path pins every artificial at zero by clamping its upper bound — the
// basis must stay square and nonsingular, and a unit artificial column
// fixed at 0 holds a redundant row's place without ever affecting
// feasibility (any pivot that would move it hits a zero-length ratio step
// and evicts it instead).
func solveCold(p *Problem, ins obs.Instruments) (*Solution, *rsimplex, error) {
	span := ins.Span.Child("lp.solve")
	defer span.End()
	s := newRevised(p)
	s.log = ins.Logger()
	err := s.factor()
	var sol *Solution
	if err == nil {
		sol, err = s.solveFull(p.Minimize, span)
	}
	record(ins, span, p, sol, err)
	return sol, s, err
}

// solveFull runs both phases on a freshly factorized solver and extracts
// the solution.
func (s *rsimplex) solveFull(minimize []float64, span *obs.Span) (*Solution, error) {
	artStart, log := s.artStart, s.log

	if s.nArt > 0 {
		p1Span := span.Child("lp.phase1")
		p1Timer := obs.StartTimer()
		s.setCosts(nil, true)
		err := s.run(s.n)
		s.stats.Phase1Iterations = s.iterations
		s.stats.Phase1Seconds = p1Timer.Seconds()
		p1Span.Annotate("iterations", s.iterations)
		p1Span.End()
		if log.Enabled(obs.LevelDebug) {
			log.Debug("lp phase1 done",
				"iterations", s.stats.Phase1Iterations,
				"seconds", s.stats.Phase1Seconds,
				"refactorizations", s.stats.Refactorizations)
		}
		if errors.Is(err, errUnbounded) {
			return nil, errors.New("lp: phase-1 simplex reported unbounded")
		}
		if err != nil {
			return nil, err
		}
		infeas := 0.0
		for i, bcol := range s.basis {
			if bcol >= artStart {
				infeas += s.value[i]
			}
		}
		if infeas > 1e-6 {
			return &Solution{Status: Infeasible, Iterations: s.iterations, Stats: s.stats}, nil
		}
		for j := artStart; j < s.n; j++ {
			s.upper[j] = 0
		}
	}

	p2Span := span.Child("lp.phase2")
	p2Timer := obs.StartTimer()
	s.setCosts(minimize, false)
	err := s.run(artStart)
	s.stats.Phase2Iterations = s.iterations - s.stats.Phase1Iterations
	s.stats.Phase2Seconds = p2Timer.Seconds()
	p2Span.Annotate("iterations", s.stats.Phase2Iterations)
	p2Span.End()
	if log.Enabled(obs.LevelDebug) {
		log.Debug("lp phase2 done",
			"iterations", s.stats.Phase2Iterations,
			"seconds", s.stats.Phase2Seconds,
			"refactorizations", s.stats.Refactorizations)
	}
	if errors.Is(err, errUnbounded) {
		return &Solution{Status: Unbounded, Iterations: s.iterations, Stats: s.stats}, nil
	}
	if err != nil {
		return nil, err
	}

	x, obj := s.extract(minimize)
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: s.iterations, Stats: s.stats}, nil
}

// extract reads the current iterate into problem-variable space and
// prices it with the given objective. With a nil colVar map the
// structural variables are the column prefix [0, nStruct); otherwise
// colVar translates grown column layouts back to variables.
func (s *rsimplex) extract(minimize []float64) (x []float64, obj float64) {
	x = make([]float64, len(minimize))
	if s.colVar == nil {
		for j := 0; j < s.nStruct; j++ {
			if s.status[j] == atUpper {
				x[j] = s.upper[j]
			}
		}
		for i, bcol := range s.basis {
			if bcol < s.nStruct {
				v := s.value[i]
				if v < 0 && v > -1e-6 {
					v = 0
				}
				x[bcol] = v
			}
		}
	} else {
		for j, v := range s.colVar {
			if v >= 0 && s.status[j] == atUpper {
				x[v] = s.upper[j]
			}
		}
		for i, bcol := range s.basis {
			if v := s.colVar[bcol]; v >= 0 {
				val := s.value[i]
				if val < 0 && val > -1e-6 {
					val = 0
				}
				x[v] = val
			}
		}
	}
	for j, c := range minimize {
		obj += c * x[j]
	}
	return x, obj
}
