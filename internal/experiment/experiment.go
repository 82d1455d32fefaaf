package experiment

import (
	"fmt"
	"io"
	"runtime"
	"strconv"

	"dsmec/internal/pool"
	"dsmec/internal/texttable"
)

// Options tunes an experiment run.
type Options struct {
	// Seed roots all randomness; identical seeds reproduce identical
	// figures. Default 1.
	Seed int64
	// Trials is the number of seeded repetitions averaged per point.
	// Default 3.
	Trials int
	// Quick shrinks sweeps to their endpoints, for smoke tests and
	// testing.B benchmarks.
	Quick bool
	// Parallelism bounds how many sweep points (and trials within each
	// point) run concurrently. Zero means GOMAXPROCS; 1 runs everything
	// sequentially. Results are always aggregated in index order, so
	// figures are byte-identical regardless of the worker count.
	Parallelism int
	// FaultSeed roots the fault-plan randomness of fault-injecting
	// experiments (robustness), independently of Seed so the same
	// workload can be stressed with different fault draws. Default 1.
	FaultSeed int64
}

// workers resolves Parallelism to a concrete worker count.
func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// collectIndexed runs fn for indices 0..n-1 over a bounded pool and
// returns the results in index order, so downstream aggregation (and its
// floating-point accumulation sequence) is independent of scheduling.
func collectIndexed[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := pool.ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials == 0 {
		o.Trials = 3
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	return o
}

// Row is one x-axis point of a figure.
type Row struct {
	X      string
	Values []float64
}

// Figure is a reproduced table or figure: labeled columns over swept rows.
type Figure struct {
	ID      string
	Title   string
	XLabel  string
	YLabel  string
	Columns []string
	Rows    []Row
	Notes   []string
}

// AddRow appends a data point.
func (f *Figure) AddRow(x string, values ...float64) {
	f.Rows = append(f.Rows, Row{X: x, Values: values})
}

// Table renders the figure as an aligned text table.
func (f *Figure) Table() *texttable.Table {
	headers := append([]string{f.XLabel}, f.Columns...)
	tb := texttable.New(headers...)
	for _, r := range f.Rows {
		cells := make([]string, 0, len(r.Values)+1)
		cells = append(cells, r.X)
		for _, v := range r.Values {
			cells = append(cells, strconv.FormatFloat(v, 'g', 6, 64))
		}
		tb.AddRow(cells...)
	}
	return tb
}

// WriteTo renders a titled block: header, table, notes.
func (f *Figure) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintf(w, "== %s: %s ==\n(y: %s)\n", f.ID, f.Title, f.YLabel)
	total += int64(n)
	if err != nil {
		return total, err
	}
	tn, err := f.Table().WriteTo(w)
	total += tn
	if err != nil {
		return total, err
	}
	for _, note := range f.Notes {
		n, err = fmt.Fprintf(w, "note: %s\n", note)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// CSV writes the figure data as CSV.
func (f *Figure) CSV(w io.Writer) error {
	return f.Table().CSV(w)
}

// Runner produces one figure.
type Runner func(Options) (*Figure, error)

// Definition pairs an experiment ID with its runner.
type Definition struct {
	ID    string
	Title string
	Run   Runner
}

// Registry lists every reproducible artifact: the paper's Table I and
// Figs. 2–6, plus the extensions (simulator validation and ablations).
func Registry() []Definition {
	return []Definition{
		{"table1", "Table I: parameters of wireless networks", Table1},
		{"fig2a", "Fig. 2(a): energy vs number of tasks", Fig2a},
		{"fig2b", "Fig. 2(b): energy vs input data size", Fig2b},
		{"fig3", "Fig. 3: unsatisfied task rate vs number of tasks", Fig3},
		{"fig4a", "Fig. 4(a): average latency vs number of tasks", Fig4a},
		{"fig4b", "Fig. 4(b): average latency vs input data size", Fig4b},
		{"fig5a", "Fig. 5(a): DTA energy vs number of tasks", Fig5a},
		{"fig5b", "Fig. 5(b): DTA energy vs result size", Fig5b},
		{"fig6a", "Fig. 6(a): DTA processing time vs input size", Fig6a},
		{"fig6b", "Fig. 6(b): DTA involved devices vs number of tasks", Fig6b},
		{"simcheck", "Extension: analytic model vs discrete-event simulation", SimCheck},
		{"feedback", "Extension: simulator-in-the-loop replanning", Feedback},
		{"battery", "Extension: per-device battery drain under DTA", BatteryStudy},
		{"arrivals", "Extension: batch vs spread task arrivals", Arrivals},
		{"ratio", "Extension: LP-HTA empirical ratio vs exact optimum", RatioStudy},
		{"ablation-rounding", "Ablation: largest-fraction vs randomized rounding", AblationRounding},
		{"ablation-repair", "Ablation: repair migration order", AblationRepair},
		{"ablation-lpt", "Ablation: paper greedy vs LPT data division", AblationLPT},
		{"division-ratio", "Extension: division greedies vs exact P3 optimum", DivisionRatio},
		{"robustness", "Extension: goodput/energy under injected faults and recovery", Robustness},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Definition, bool) {
	for _, d := range Registry() {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}
