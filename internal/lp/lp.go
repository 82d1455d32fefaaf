package lp

import (
	"errors"
	"fmt"
	"math"

	"dsmec/internal/obs"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota + 1 // a·x ≤ b
	GE                  // a·x ≥ b
	EQ                  // a·x = b
)

// String renders the sense symbol.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is one linear constraint a·x (sense) b, in one of two forms:
//
//   - dense: Cols is nil and Coeffs has one entry per variable;
//   - sparse: Cols lists the columns with nonzero coefficients in strictly
//     increasing order and Coeffs holds the matching values.
//
// Sparse rows are lowered into the solver only at solve time, so building
// a problem costs memory proportional to the nonzero count rather than
// rows × variables. The LP-HTA cluster relaxations have 3-nonzero C4 rows
// and per-device C2 rows, which makes the dense form quadratic in the
// cluster size; use Sparse there.
type Constraint struct {
	Coeffs []float64
	// Cols, when non-nil, selects the sparse form: Coeffs[k] is the
	// coefficient of variable Cols[k]. Must be strictly increasing.
	Cols  []int
	Sense Sense
	RHS   float64
}

// Sparse builds a sparse constraint: coeffs[k] applies to variable
// cols[k], every other coefficient is zero. cols must be strictly
// increasing (Validate enforces this).
func Sparse(cols []int, coeffs []float64, sense Sense, rhs float64) Constraint {
	return Constraint{Cols: cols, Coeffs: coeffs, Sense: sense, RHS: rhs}
}

// Dot returns a·x for either constraint form.
func (c *Constraint) Dot(x []float64) float64 {
	dot := 0.0
	if c.Cols != nil {
		for k, j := range c.Cols {
			dot += c.Coeffs[k] * x[j]
		}
		return dot
	}
	for j, a := range c.Coeffs {
		dot += a * x[j]
	}
	return dot
}

// Problem is a linear program in minimization form. All variables have an
// implicit lower bound of zero. Upper, if non-nil, gives per-variable upper
// bounds; use math.Inf(1) for unbounded variables.
type Problem struct {
	Minimize    []float64
	Constraints []Constraint
	Upper       []float64
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.Minimize) }

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	n := p.NumVars()
	if n == 0 {
		return errors.New("lp: problem has no variables")
	}
	for i, c := range p.Constraints {
		if c.Cols != nil {
			if len(c.Coeffs) != len(c.Cols) {
				return fmt.Errorf("lp: sparse constraint %d has %d coefficients for %d columns",
					i, len(c.Coeffs), len(c.Cols))
			}
			for k, col := range c.Cols {
				if col < 0 || col >= n {
					return fmt.Errorf("lp: sparse constraint %d references column %d of %d", i, col, n)
				}
				if k > 0 && col <= c.Cols[k-1] {
					return fmt.Errorf("lp: sparse constraint %d columns not strictly increasing at %d", i, k)
				}
			}
		} else if len(c.Coeffs) != n {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n)
		}
		if c.Sense != LE && c.Sense != GE && c.Sense != EQ {
			return fmt.Errorf("lp: constraint %d has invalid sense %d", i, int(c.Sense))
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite rhs %g", i, c.RHS)
		}
		for j, a := range c.Coeffs {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("lp: constraint %d coefficient %d is non-finite", i, j)
			}
		}
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: %d upper bounds, want %d", len(p.Upper), n)
	}
	for j, u := range p.Upper {
		if math.IsNaN(u) || u < 0 {
			return fmt.Errorf("lp: variable %d has invalid upper bound %g", j, u)
		}
	}
	for j, c := range p.Minimize {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: objective coefficient %d is non-finite", j)
		}
	}
	return nil
}

// Status reports how a solve ended.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota + 1
	Infeasible
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve. X and Objective are meaningful only when
// Status == Optimal.
type Solution struct {
	Status     Status
	X          []float64
	Objective  float64
	Iterations int
	// Warm is set by Incremental.Resolve when the solve reused the
	// previous optimal basis instead of starting from scratch.
	Warm bool
	// Stats breaks the solve down for observability.
	Stats SolveStats
}

// SolveStats counts what the simplex actually did.
type SolveStats struct {
	// Pivots counts basis changes (excludes bound flips).
	Pivots int
	// BoundFlips counts nonbasic variables crossing to their other bound
	// without a basis change.
	BoundFlips int
	// DegeneratePivots counts iterations with a ~zero step.
	DegeneratePivots int
	// RatioTestTies counts leaving-row ties within tolerance, where the
	// anti-cycling index rule had to arbitrate.
	RatioTestTies int
	// BlandSwitches counts escalations to Bland's rule after a
	// degenerate run.
	BlandSwitches int
	// DualPivots counts the subset of Pivots driven by the dual simplex
	// phase of a warm-started incremental re-solve (always 0 for cold
	// solves).
	DualPivots int
	// ObjectiveInstalls counts reduced-cost row installations.
	ObjectiveInstalls int
	// Refactorizations counts basis LU refactorizations beyond the
	// initial factorization.
	Refactorizations int
	// EtaVectors counts product-form basis updates applied between
	// refactorizations.
	EtaVectors int
	// Phase1Iterations and Phase2Iterations split Solution.Iterations.
	Phase1Iterations int
	Phase2Iterations int
	// Phase1Seconds and Phase2Seconds are wall-clock phase timings.
	Phase1Seconds float64
	Phase2Seconds float64
}

// ErrIterationLimit is returned when the simplex fails to converge within
// its iteration budget, which indicates a numerically hostile problem.
var ErrIterationLimit = errors.New("lp: iteration limit exceeded")

const (
	// eps is the general feasibility/optimality tolerance.
	eps = 1e-9
	// pivotEps rejects pivots too small to divide by safely.
	pivotEps = 1e-7
)

// Solve solves the problem with the two-phase revised simplex. Metrics
// are recorded to the process-wide obs registry when one is installed;
// use SolveObserved to direct them (and trace spans) explicitly.
func Solve(p *Problem) (*Solution, error) {
	return SolveObserved(p, obs.Instruments{})
}

// SolveObserved solves the problem and records counters, timings, and a
// trace span into ins. A zero ins falls back to the process-wide
// registry and disables tracing.
func SolveObserved(p *Problem, ins obs.Instruments) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sol, _, err := solveCold(p, ins)
	return sol, err
}

// record publishes one solve's outcome, cold or warm. The counter lookups
// cost a few nanoseconds each against a disabled (nil) registry.
func record(ins obs.Instruments, span *obs.Span, p *Problem, sol *Solution, err error) {
	reg := ins.Registry()
	log := ins.Logger()
	if span != nil {
		span.Annotate("vars", p.NumVars())
		span.Annotate("constraints", len(p.Constraints))
	}
	if reg == nil && span == nil && log == nil {
		return
	}
	reg.Counter("lp.solves").Inc()
	if err != nil {
		reg.Counter("lp.errors").Inc()
		if span != nil {
			span.Annotate("error", err.Error())
		}
		log.Warn("lp solve failed",
			"vars", p.NumVars(),
			"constraints", len(p.Constraints),
			"err", err.Error())
		return
	}
	st := sol.Stats
	reg.Counter("lp.pivots").Add(int64(st.Pivots))
	reg.Counter("lp.bound_flips").Add(int64(st.BoundFlips))
	reg.Counter("lp.degenerate_pivots").Add(int64(st.DegeneratePivots))
	reg.Counter("lp.ratio_test_ties").Add(int64(st.RatioTestTies))
	reg.Counter("lp.bland_switches").Add(int64(st.BlandSwitches))
	reg.Counter("lp.dual_pivots").Add(int64(st.DualPivots))
	reg.Counter("lp.objective_installs").Add(int64(st.ObjectiveInstalls))
	reg.Counter("lp.refactorizations").Add(int64(st.Refactorizations))
	reg.Counter("lp.eta_vectors").Add(int64(st.EtaVectors))
	reg.Counter("lp.phase1_iterations").Add(int64(st.Phase1Iterations))
	reg.Counter("lp.phase2_iterations").Add(int64(st.Phase2Iterations))
	switch sol.Status {
	case Infeasible:
		reg.Counter("lp.infeasible").Inc()
	case Unbounded:
		reg.Counter("lp.unbounded").Inc()
	}
	reg.Histogram("lp.solve_seconds", obs.TimeBuckets).Observe(st.Phase1Seconds + st.Phase2Seconds)
	reg.Histogram("lp.pivots_per_solve", obs.CountBuckets).Observe(float64(st.Pivots))
	reg.Histogram("lp.degenerate_pivots_per_solve", obs.CountBuckets).Observe(float64(st.DegeneratePivots))
	reg.Histogram("lp.eta_vectors_per_solve", obs.CountBuckets).Observe(float64(st.EtaVectors))
	// Mean pivots between basis refactorizations this solve (the initial
	// factorization counts as interval zero's start).
	reg.Histogram("lp.refactor_interval_pivots", obs.CountBuckets).
		Observe(float64(st.Pivots) / float64(st.Refactorizations+1))
	if span != nil {
		span.Annotate("status", sol.Status.String())
		span.Annotate("iterations", sol.Iterations)
		span.Annotate("pivots", st.Pivots)
	}
	if log.Enabled(obs.LevelDebug) {
		log.Debug("lp solve done",
			"status", sol.Status.String(),
			"vars", p.NumVars(),
			"constraints", len(p.Constraints),
			"pivots", st.Pivots,
			"degenerate_pivots", st.DegeneratePivots,
			"refactorizations", st.Refactorizations,
			"seconds", st.Phase1Seconds+st.Phase2Seconds)
	}
}

// varStatus tracks where a nonbasic variable currently sits.
type varStatus uint8

const (
	atLower varStatus = iota // nonbasic at value 0
	atUpper                  // nonbasic at its upper bound
	basic
)

// rowKind is one constraint row after RHS-sign normalization: the
// effective sense, and whether the row was negated to make its RHS ≥ 0.
type rowKind struct {
	sense Sense
	neg   bool
}

// classifyRows normalizes every row to RHS ≥ 0 and counts the slack and
// artificial columns the standard form needs. The revised simplex and the
// dense tableau oracle in the tests both lower this identical standard
// form.
func classifyRows(cons []Constraint) (kinds []rowKind, nSlack, nArt int) {
	kinds = make([]rowKind, len(cons))
	for i, c := range cons {
		sense := c.Sense
		neg := c.RHS < 0
		if neg {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		kinds[i] = rowKind{sense: sense, neg: neg}
		switch sense {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	return kinds, nSlack, nArt
}

// errUnbounded signals an unbounded phase-2 objective.
var errUnbounded = errors.New("lp: unbounded")
