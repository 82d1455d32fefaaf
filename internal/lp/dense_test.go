package lp

import (
	"errors"
	"math"
)

// The dense tableau below is the reference oracle for the revised simplex
// (revised.go): the same bounded-variable two-phase primal simplex, with
// the same pricing, ratio test, Bland escalation and tie-breaking, but
// maintaining the full tableau B⁻¹A instead of an LU-factorized basis.
// Unlike the revised simplex it still prices columns fixed at zero, so
// the two can take different pivot paths to the same optimum.
// It lives in a test file because nothing in production selects it; the
// cross-check suites reach it through SolveDense.

// SolveDense solves p on the dense tableau. It records no metrics or
// trace spans.
func SolveDense(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newTableau(p).solve(p)
}

// scatter writes the row's coefficients, scaled by sign, into the dense
// prefix of dst (which must be zeroed).
func (c *Constraint) scatter(dst []float64, sign float64) {
	if c.Cols != nil {
		for k, j := range c.Cols {
			dst[j] = sign * c.Coeffs[k]
		}
		return
	}
	for j, a := range c.Coeffs {
		dst[j] = sign * a
	}
}

// tableau is the bounded-variable standard form: minimize c·x subject to
// A x = b with 0 ≤ x_j ≤ u_j, b ≥ 0 after normalization. Upper bounds are
// handled natively by the simplex (nonbasic variables may rest at either
// bound), so no extra rows are materialized for them — this keeps the
// LP-HTA relaxations linear in the task count rather than quadratic.
// Columns: structural variables first, then slack/surplus, then
// artificials.
type tableau struct {
	m, n    int // rows, total columns
	nStruct int // structural variable count
	nArt    int // artificial count

	rows   [][]float64 // T = B⁻¹A, maintained by pivoting
	active []bool      // redundant rows discovered in phase 1 are retired

	upper  []float64   // per-column upper bound (+Inf when absent)
	status []varStatus // per-column location
	basis  []int       // basis[i] = column basic in row i
	value  []float64   // value[i] = current value of basis[i]

	obj        []float64 // reduced-cost row
	iterations int
	stats      SolveStats
}

// newTableau converts p into bounded standard form.
func newTableau(p *Problem) *tableau {
	n := p.NumVars()
	cons := p.Constraints
	m := len(cons)
	t := &tableau{m: m, nStruct: n}

	kinds, nSlack, nArt := classifyRows(cons)
	t.n = n + nSlack + nArt
	t.nArt = nArt

	t.rows = make([][]float64, m)
	t.active = make([]bool, m)
	t.basis = make([]int, m)
	t.value = make([]float64, m)
	t.upper = make([]float64, t.n)
	t.status = make([]varStatus, t.n)
	for j := range t.upper {
		t.upper[j] = math.Inf(1)
	}
	for j, u := range p.Upper {
		t.upper[j] = u
	}

	slackCol, artCol := n, n+nSlack
	for i, c := range cons {
		row := make([]float64, t.n)
		sign := 1.0
		if kinds[i].neg {
			sign = -1
		}
		c.scatter(row, sign)
		rhs := sign * c.RHS

		switch kinds[i].sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = row
		t.active[i] = true
		t.value[i] = rhs
		t.status[t.basis[i]] = basic
	}
	return t
}

// setObjective installs the reduced-cost row for the given costs.
func (t *tableau) setObjective(costs []float64) {
	t.stats.ObjectiveInstalls++
	t.obj = make([]float64, t.n)
	copy(t.obj, costs)
	for i, b := range t.basis {
		if !t.active[i] {
			continue
		}
		cb := costs[b]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.n; j++ {
			t.obj[j] -= cb * row[j]
		}
	}
}

// pivot performs a basis change on (row, col), updating T and the
// reduced-cost row. Values are maintained by the caller.
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	inv := 1 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1

	for i := range t.rows {
		if i == row || !t.active[i] {
			continue
		}
		f := t.rows[i][col]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
	}
	if f := t.obj[col]; f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * pr[j]
		}
		t.obj[col] = 0
	}
	t.basis[row] = col
	t.iterations++
	t.stats.Pivots++
}

// runSimplex iterates the bounded-variable simplex until optimality (nil),
// unboundedness (errUnbounded), or the iteration limit. allowed reports
// whether a column may enter the basis (used to bar artificials in
// phase 2).
func (t *tableau) runSimplex(allowed func(col int) bool) error {
	limit := 2000 * (t.m + t.n + 1)
	degenerate := 0
	useBland := false

	for iter := 0; iter < limit; iter++ {
		// Pricing: a variable at lower enters increasing when its reduced
		// cost is negative; one at upper enters decreasing when positive.
		enter := -1
		sigma := 1.0
		if useBland {
			for j := 0; j < t.n; j++ {
				if !allowed(j) || t.status[j] == basic {
					continue
				}
				if t.status[j] == atLower && t.obj[j] < -eps {
					enter, sigma = j, 1
					break
				}
				if t.status[j] == atUpper && t.obj[j] > eps {
					enter, sigma = j, -1
					break
				}
			}
		} else {
			best := eps
			for j := 0; j < t.n; j++ {
				if !allowed(j) || t.status[j] == basic {
					continue
				}
				var viol float64
				if t.status[j] == atLower {
					viol = -t.obj[j]
				} else {
					viol = t.obj[j]
				}
				if viol > best {
					best = viol
					enter = j
					if t.status[j] == atLower {
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

		// Ratio test: the entering variable moves by step ≥ 0 in
		// direction sigma; basic variable i changes by -sigma·w_i·step.
		step := t.upper[enter] // bound-flip distance (may be +Inf)
		leave := -1
		leaveAt := atLower
		for i := 0; i < t.m; i++ {
			if !t.active[i] {
				continue
			}
			w := t.rows[i][enter]
			a := sigma * w
			switch {
			case a > pivotEps: // basic value falls toward 0
				s := t.value[i] / a
				if s < step+eps && s >= step-eps && leave >= 0 {
					t.stats.RatioTestTies++
				}
				if s < step-eps ||
					(s < step+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					step, leave, leaveAt = s, i, atLower
				}
			case a < -pivotEps: // basic value rises toward its bound
				ub := t.upper[t.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				s := (ub - t.value[i]) / -a
				if s < step+eps && s >= step-eps && leave >= 0 {
					t.stats.RatioTestTies++
				}
				if s < step-eps ||
					(s < step+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					step, leave, leaveAt = s, i, atUpper
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
			t.stats.DegeneratePivots++
			if degenerate > t.m+t.n {
				if !useBland {
					t.stats.BlandSwitches++
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
			for i := 0; i < t.m; i++ {
				if t.active[i] {
					t.value[i] -= sigma * t.rows[i][enter] * step
				}
			}
			if t.status[enter] == atLower {
				t.status[enter] = atUpper
			} else {
				t.status[enter] = atLower
			}
			t.iterations++
			t.stats.BoundFlips++
			continue
		}

		// Basis change: update values, then pivot.
		enterValue := 0.0
		if t.status[enter] == atUpper {
			enterValue = t.upper[enter]
		}
		for i := 0; i < t.m; i++ {
			if i == leave || !t.active[i] {
				continue
			}
			t.value[i] -= sigma * t.rows[i][enter] * step
		}
		leaving := t.basis[leave]
		t.status[leaving] = leaveAt
		t.value[leave] = enterValue + sigma*step
		t.status[enter] = basic
		t.pivot(leave, enter)
	}
	return ErrIterationLimit
}

// solve runs the two phases and extracts the solution.
func (t *tableau) solve(p *Problem) (*Solution, error) {
	allowAll := func(int) bool { return true }
	artStart := t.n - t.nArt

	if t.nArt > 0 {
		phase1 := make([]float64, t.n)
		for j := artStart; j < t.n; j++ {
			phase1[j] = 1
		}
		t.setObjective(phase1)
		err := t.runSimplex(allowAll)
		t.stats.Phase1Iterations = t.iterations
		if errors.Is(err, errUnbounded) {
			return nil, errors.New("lp: phase-1 simplex reported unbounded")
		}
		if err != nil {
			return nil, err
		}
		infeas := 0.0
		for i, b := range t.basis {
			if t.active[i] && b >= artStart {
				infeas += t.value[i]
			}
		}
		if infeas > 1e-6 {
			return &Solution{Status: Infeasible, Iterations: t.iterations, Stats: t.stats}, nil
		}
		// Drive surviving artificials out of the basis, or retire their
		// rows as redundant.
		for i := 0; i < t.m; i++ {
			if !t.active[i] || t.basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if t.status[j] != basic && math.Abs(t.rows[i][j]) > pivotEps {
					// Zero-step pivot: the solution is unchanged, so the
					// entering variable keeps its current value (0 at
					// lower, u_j at upper) as its new basic value.
					enterVal := 0.0
					if t.status[j] == atUpper {
						enterVal = t.upper[j]
					}
					t.status[t.basis[i]] = atLower
					t.status[j] = basic
					t.value[i] = enterVal
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				t.active[i] = false
			}
		}
	}

	costs := make([]float64, t.n)
	copy(costs, p.Minimize)
	t.setObjective(costs)
	noArt := func(col int) bool { return col < artStart }
	err := t.runSimplex(noArt)
	t.stats.Phase2Iterations = t.iterations - t.stats.Phase1Iterations
	if errors.Is(err, errUnbounded) {
		return &Solution{Status: Unbounded, Iterations: t.iterations, Stats: t.stats}, nil
	}
	if err != nil {
		return nil, err
	}

	x := make([]float64, t.nStruct)
	for j := 0; j < t.nStruct; j++ {
		if t.status[j] == atUpper {
			x[j] = t.upper[j]
		}
	}
	for i, b := range t.basis {
		if t.active[i] && b < t.nStruct {
			v := t.value[i]
			if v < 0 && v > -1e-6 {
				v = 0
			}
			x[b] = v
		}
	}
	obj := 0.0
	for j, c := range p.Minimize {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj, Iterations: t.iterations, Stats: t.stats}, nil
}
