package lp_test

import (
	"math"
	"testing"

	"dsmec/internal/lp"
	"dsmec/internal/perfbench"
	"dsmec/internal/rng"
)

// crossSolve runs one problem through Solve (the revised simplex) and the
// dense tableau oracle, and enforces their contract: identical status,
// objectives within 1e-9 relative, and a feasible point from each. It
// returns both solutions for test-specific checks.
func crossSolve(t *testing.T, p *lp.Problem) (dense, revised *lp.Solution) {
	t.Helper()
	var err error
	if dense, err = lp.SolveDense(p); err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	if revised, err = lp.Solve(p); err != nil {
		t.Fatalf("revised solve: %v", err)
	}

	if dense.Status != revised.Status {
		t.Fatalf("status disagreement: dense=%v revised=%v", dense.Status, revised.Status)
	}
	if dense.Status != lp.Optimal {
		return dense, revised
	}
	if diff := math.Abs(dense.Objective - revised.Objective); diff > 1e-9*(1+math.Abs(dense.Objective)) {
		t.Fatalf("objective disagreement: dense=%.12g revised=%.12g (diff %g)",
			dense.Objective, revised.Objective, diff)
	}
	checkFeasiblePoint(t, "dense", p, dense.X)
	checkFeasiblePoint(t, "revised", p, revised.X)
	return dense, revised
}

// checkFeasiblePoint verifies x satisfies every constraint and bound of p
// within a loose tolerance.
func checkFeasiblePoint(t *testing.T, label string, p *lp.Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j, v := range x {
		if v < -tol {
			t.Fatalf("%s: x[%d] = %g negative", label, j, v)
		}
		if p.Upper != nil && !math.IsInf(p.Upper[j], 1) && v > p.Upper[j]+tol {
			t.Fatalf("%s: x[%d] = %g above bound %g", label, j, v, p.Upper[j])
		}
	}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		dot := c.Dot(x)
		switch c.Sense {
		case lp.LE:
			if dot > c.RHS+tol*(1+math.Abs(c.RHS)) {
				t.Fatalf("%s: row %d: %g > %g", label, i, dot, c.RHS)
			}
		case lp.GE:
			if dot < c.RHS-tol*(1+math.Abs(c.RHS)) {
				t.Fatalf("%s: row %d: %g < %g", label, i, dot, c.RHS)
			}
		case lp.EQ:
			if math.Abs(dot-c.RHS) > tol*(1+math.Abs(c.RHS)) {
				t.Fatalf("%s: row %d: %g != %g", label, i, dot, c.RHS)
			}
		}
	}
}

// TestCrossCheckCorpus runs every fixed problem from the lp test suite —
// plus degenerate, cycling, and tight-bound stress cases — through both
// solvers.
func TestCrossCheckCorpus(t *testing.T) {
	inf := math.Inf(1)
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
		{"ge constraint", &lp.Problem{
			Minimize: []float64{2, 3},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1}, Sense: lp.GE, RHS: 4},
				{Coeffs: []float64{1, 0}, Sense: lp.GE, RHS: 1},
			},
		}},
		{"pure upper bounds", &lp.Problem{
			Minimize: []float64{-1, -1},
			Upper:    []float64{3, 2},
		}},
		{"mixed infinite bounds", &lp.Problem{
			Minimize: []float64{-1, -1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 0}, Sense: lp.LE, RHS: 7},
			},
			Upper: []float64{inf, 1},
		}},
		{"negative rhs le", &lp.Problem{
			Minimize: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{-1}, Sense: lp.LE, RHS: -2},
			},
		}},
		{"negative rhs ge", &lp.Problem{
			Minimize: []float64{-1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{-1}, Sense: lp.GE, RHS: -5},
			},
		}},
		{"negative rhs eq", &lp.Problem{
			Minimize: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, -1}, Sense: lp.EQ, RHS: -3},
			},
		}},
		{"infeasible rows", &lp.Problem{
			Minimize: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Sense: lp.GE, RHS: 2},
				{Coeffs: []float64{1}, Sense: lp.LE, RHS: 1},
			},
		}},
		{"infeasible equality vs bounds", &lp.Problem{
			Minimize: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1}, Sense: lp.EQ, RHS: 5},
			},
			Upper: []float64{1, 1},
		}},
		{"unbounded", &lp.Problem{
			Minimize: []float64{-1, 0},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 1},
			},
		}},
		{"redundant equalities", &lp.Problem{
			Minimize: []float64{1, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1}, Sense: lp.EQ, RHS: 2},
				{Coeffs: []float64{1, 1}, Sense: lp.EQ, RHS: 2},
				{Coeffs: []float64{2, 2}, Sense: lp.EQ, RHS: 4},
			},
		}},
		{"degenerate vertex", &lp.Problem{
			Minimize: []float64{-1, -1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 0}, Sense: lp.LE, RHS: 1},
				{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 1},
				{Coeffs: []float64{1, 1}, Sense: lp.LE, RHS: 2},
				{Coeffs: []float64{1, 1}, Sense: lp.LE, RHS: 2},
			},
		}},
		{"zero rhs degeneracy", &lp.Problem{
			Minimize: []float64{-1, -2},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 0}, Sense: lp.LE, RHS: 0},
				{Coeffs: []float64{1, 1}, Sense: lp.LE, RHS: 3},
			},
		}},
		// Beale's classic cycling example: Dantzig pricing with naive
		// tie-breaking cycles forever; both implementations must escape via
		// their shared Bland's-rule escalation and agree on the optimum
		// (−0.05).
		{"beale cycling", &lp.Problem{
			Minimize: []float64{-0.75, 150, -0.02, 6},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{0.25, -60, -0.04, 9}, Sense: lp.LE, RHS: 0},
				{Coeffs: []float64{0.5, -90, -0.02, 3}, Sense: lp.LE, RHS: 0},
				{Coeffs: []float64{0, 0, 1, 0}, Sense: lp.LE, RHS: 1},
			},
		}},
		// Zero-width bounds pin variables at 0 while they still appear in
		// rows; the revised simplex never prices them, the dense tableau
		// does, and both must reach the same optimum.
		{"tight zero bounds", &lp.Problem{
			Minimize: []float64{-5, -1, -1},
			Upper:    []float64{0, 1, 0},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1, 1}, Sense: lp.LE, RHS: 2},
				{Coeffs: []float64{1, 0, 1}, Sense: lp.GE, RHS: 0},
			},
		}},
		{"bound flip heavy", &lp.Problem{
			Minimize: []float64{-3, -2, -1, -4},
			Upper:    []float64{0.5, 0.5, 0.5, 0.5},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1, 1, 1}, Sense: lp.LE, RHS: 10},
			},
		}},
		{"sparse rows", &lp.Problem{
			Minimize: []float64{1, -2, 3, -1, 0},
			Upper:    []float64{2, 2, 2, 2, 2},
			Constraints: []lp.Constraint{
				lp.Sparse([]int{0, 2}, []float64{1, 1}, lp.LE, 3),
				lp.Sparse([]int{1, 3}, []float64{1, 1}, lp.LE, 2.5),
				lp.Sparse([]int{0, 1, 4}, []float64{1, -1, 2}, lp.GE, -1),
			},
		}},
		{"mixed sparse dense rows", &lp.Problem{
			Minimize: []float64{-1, -1, -1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1, 1, 0}, Sense: lp.LE, RHS: 2},
				lp.Sparse([]int{2}, []float64{1}, lp.LE, 1.5),
				lp.Sparse([]int{0, 2}, []float64{1, 1}, lp.LE, 2),
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crossSolve(t, tc.p)
		})
	}
}

// TestCrossCheckClusterLPs runs the LP-HTA-shaped benchmark instances —
// the exact problems BENCH_lphta.json measures — through both solvers, in
// both their sparse and dense row forms, then again with some columns
// pinned at zero.
func TestCrossCheckClusterLPs(t *testing.T) {
	for _, tasks := range []int{10, 30, 90, 150} {
		for _, sparse := range []bool{false, true} {
			p := perfbench.ClusterLP(tasks, sparse)
			dense, revised := crossSolve(t, p)
			if dense.Status != lp.Optimal {
				t.Fatalf("tasks=%d sparse=%v: status %v, want optimal", tasks, sparse, dense.Status)
			}
			// The benchmark instances are the ones the perf gate watches, so
			// also pin the stronger property: identical iterate-independent
			// stats and near-identical pivot paths would be too brittle, but
			// the revised simplex must report its factorization work.
			if revised.Stats.Refactorizations == 0 && revised.Iterations > 2*refactorCheckLimit {
				t.Errorf("tasks=%d: %d iterations with no refactorizations", tasks, revised.Iterations)
			}
		}
	}

	// Pin some station and cloud columns at zero, as solveClusterLP does
	// for subsystems that can never serve a task. The revised simplex
	// skips such columns in pricing while the dense oracle still prices
	// them, so the two take different pivot paths; they must still agree
	// on status and objective, and on the per-task argmax over each
	// 3-column group, which is what LP-HTA's rounding reads.
	for _, tasks := range []int{10, 30, 90, 150, 240} {
		for _, seed := range []int64{1, 2, 3} {
			p := perfbench.ClusterLP(tasks, true)
			r := rng.NewSource(seed).Stream("pin")
			for i := 0; i < tasks; i++ {
				switch rng.UniformInt(r, 0, 3) {
				case 0:
					p.Upper[3*i+1] = 0 // station unreachable
				case 1:
					p.Upper[3*i+2] = 0 // cloud unreachable
				}
			}
			dense, revised := crossSolve(t, p)
			if dense.Status != lp.Optimal {
				continue
			}
			for i := 0; i < tasks; i++ {
				if d, v := argmax3(dense.X[3*i:]), argmax3(revised.X[3*i:]); d != v {
					t.Errorf("pinned tasks=%d seed=%d task %d: dense argmax %d %v, revised %d %v",
						tasks, seed, i, d, dense.X[3*i:3*i+3], v, revised.X[3*i:3*i+3])
				}
			}
		}
	}
}

// refactorCheckLimit mirrors the solver's refactorization interval; a run
// twice that long must have refactorized at least once.
const refactorCheckLimit = 50

// argmax3 returns the index of the largest of x[0:3], first on ties.
func argmax3(x []float64) int {
	best := 0
	for l := 1; l < 3; l++ {
		if x[l] > x[best] {
			best = l
		}
	}
	return best
}

// TestCrossCheckRandom fuzzes both solvers against each other on small
// random problems with mixed senses, signs, and bounds.
func TestCrossCheckRandom(t *testing.T) {
	r := rng.NewSource(4321).Stream("lp-crosscheck")
	for trial := 0; trial < 250; trial++ {
		n := rng.UniformInt(r, 1, 6)
		m := rng.UniformInt(r, 0, 6)
		p := &lp.Problem{
			Minimize: make([]float64, n),
			Upper:    make([]float64, n),
		}
		for j := 0; j < n; j++ {
			p.Minimize[j] = rng.Uniform(r, -5, 5)
			switch rng.UniformInt(r, 0, 4) {
			case 0:
				p.Upper[j] = math.Inf(1)
			case 1:
				p.Upper[j] = 0 // zero-width: fixed columns the revised simplex skips
			default:
				p.Upper[j] = rng.Uniform(r, 0, 5)
			}
		}
		for i := 0; i < m; i++ {
			c := lp.Constraint{Coeffs: make([]float64, n), RHS: rng.Uniform(r, -3, 6)}
			for j := 0; j < n; j++ {
				if rng.UniformInt(r, 0, 3) == 0 {
					continue // keep some sparsity
				}
				c.Coeffs[j] = rng.Uniform(r, -3, 3)
			}
			switch rng.UniformInt(r, 0, 3) {
			case 0:
				c.Sense = lp.LE
			case 1:
				c.Sense = lp.GE
			default:
				c.Sense = lp.EQ
			}
			p.Constraints = append(p.Constraints, c)
		}
		crossSolve(t, p)
	}
}

// TestCrossCheckStatsDiffer documents the observable difference between
// the solvers: only the revised simplex reports factorization work.
func TestCrossCheckStatsDiffer(t *testing.T) {
	p := perfbench.ClusterLP(90, true)
	dense, revised := crossSolve(t, p)
	if dense.Stats.Refactorizations != 0 || dense.Stats.EtaVectors != 0 {
		t.Errorf("dense reported factorization stats: %+v", dense.Stats)
	}
	if revised.Stats.Refactorizations == 0 || revised.Stats.EtaVectors == 0 {
		t.Errorf("revised reported no factorization work: %+v", revised.Stats)
	}
}
