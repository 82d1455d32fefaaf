package lp

import (
	"strings"
	"testing"

	"dsmec/internal/rng"
)

// sparsify converts a dense constraint to the index/value form.
func sparsify(c Constraint) Constraint {
	cols := []int{}
	vals := []float64{}
	for j, v := range c.Coeffs {
		if v != 0 {
			cols = append(cols, j)
			vals = append(vals, v)
		}
	}
	return Sparse(cols, vals, c.Sense, c.RHS)
}

func TestSparseMatchesDense(t *testing.T) {
	// Identical problems in dense and sparse form must solve to the same
	// point bit-for-bit: both lower to the same sparse column matrix.
	p := &Problem{
		Minimize: []float64{1, 2, 3, 0.5},
		Upper:    []float64{1, 1, 1, 1},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1, 0}, Sense: EQ, RHS: 1},
			{Coeffs: []float64{2, 0, 0, 1}, Sense: LE, RHS: 1.5},
			{Coeffs: []float64{0, 1, 0, 1}, Sense: GE, RHS: 0.5},
		},
	}
	q := &Problem{Minimize: p.Minimize, Upper: p.Upper}
	for _, c := range p.Constraints {
		q.Constraints = append(q.Constraints, sparsify(c))
	}
	ds, qs := solveOK(t, p), solveOK(t, q)
	if ds.Objective != qs.Objective {
		t.Errorf("objectives differ: dense %g, sparse %g", ds.Objective, qs.Objective)
	}
	for j := range ds.X {
		if ds.X[j] != qs.X[j] {
			t.Errorf("x[%d] differs: dense %g, sparse %g", j, ds.X[j], qs.X[j])
		}
	}
	if ds.Iterations != qs.Iterations {
		t.Errorf("iteration counts differ: dense %d, sparse %d", ds.Iterations, qs.Iterations)
	}
}

func TestSparseMatchesDenseRandom(t *testing.T) {
	r := rng.NewSource(11).Stream("sparse")
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(6)
		p := &Problem{Minimize: make([]float64, n), Upper: make([]float64, n)}
		for j := 0; j < n; j++ {
			p.Minimize[j] = r.Float64()*4 - 2
			p.Upper[j] = 0.5 + r.Float64()*2
		}
		rows := 1 + r.Intn(4)
		for i := 0; i < rows; i++ {
			coeffs := make([]float64, n)
			for j := range coeffs {
				if r.Float64() < 0.6 {
					coeffs[j] = r.Float64() * 3
				}
			}
			p.Constraints = append(p.Constraints, Constraint{
				Coeffs: coeffs, Sense: Sense(1 + r.Intn(3)), RHS: r.Float64() * float64(n),
			})
		}
		q := &Problem{Minimize: p.Minimize, Upper: p.Upper}
		for _, c := range p.Constraints {
			q.Constraints = append(q.Constraints, sparsify(c))
		}
		ds, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		qs, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Status != qs.Status {
			t.Fatalf("trial %d: status differs: dense %v, sparse %v", trial, ds.Status, qs.Status)
		}
		if ds.Status != Optimal {
			continue
		}
		if ds.Objective != qs.Objective {
			t.Errorf("trial %d: objectives differ: dense %g, sparse %g", trial, ds.Objective, qs.Objective)
		}
		for j := range ds.X {
			if ds.X[j] != qs.X[j] {
				t.Errorf("trial %d: x[%d] differs: dense %g, sparse %g", trial, j, ds.X[j], qs.X[j])
			}
		}
	}
}

func TestMixedSparseDenseRows(t *testing.T) {
	// The two forms may coexist in one problem.
	p := &Problem{
		Minimize: []float64{1, 1, 4},
		Constraints: []Constraint{
			{Coeffs: []float64{1, 1, 1}, Sense: EQ, RHS: 2},
			Sparse([]int{0}, []float64{1}, LE, 0.5),
		},
	}
	s := solveOK(t, p)
	if !almostEqual(s.X[0], 0.5) || !almostEqual(s.X[1], 1.5) || !almostEqual(s.X[2], 0) {
		t.Errorf("x = %v, want [0.5 1.5 0]", s.X)
	}
}

func TestConstraintDot(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	dense := Constraint{Coeffs: []float64{0, 1, 0, 2}}
	if got := dense.Dot(x); got != 10 {
		t.Errorf("dense Dot = %g, want 10", got)
	}
	sparse := Sparse([]int{1, 3}, []float64{1, 2}, LE, 0)
	if got := sparse.Dot(x); got != 10 {
		t.Errorf("sparse Dot = %g, want 10", got)
	}
}

func TestValidateSparseErrors(t *testing.T) {
	base := func() *Problem {
		return &Problem{Minimize: []float64{1, 1, 1}}
	}
	tests := []struct {
		name string
		row  Constraint
		want string
	}{
		{"length mismatch", Sparse([]int{0, 1}, []float64{1}, LE, 1), "coefficients for"},
		{"column out of range", Sparse([]int{0, 3}, []float64{1, 1}, LE, 1), "references column"},
		{"negative column", Sparse([]int{-1}, []float64{1}, LE, 1), "references column"},
		{"not increasing", Sparse([]int{1, 0}, []float64{1, 1}, LE, 1), "strictly increasing"},
		{"duplicate column", Sparse([]int{1, 1}, []float64{1, 1}, LE, 1), "strictly increasing"},
	}
	for _, tt := range tests {
		p := base()
		p.Constraints = []Constraint{tt.row}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tt.name, err, tt.want)
		}
	}
	// An empty (but non-nil) sparse row is valid: vacuously zero.
	p := base()
	p.Constraints = []Constraint{Sparse([]int{}, []float64{}, LE, 1)}
	if err := p.Validate(); err != nil {
		t.Errorf("empty sparse row: Validate() = %v, want nil", err)
	}
}
