package experiment

import (
	"fmt"

	"dsmec/internal/baseline"
	"dsmec/internal/core"
	"dsmec/internal/pool"
	"dsmec/internal/radio"
	"dsmec/internal/rng"
	"dsmec/internal/stats"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// Method names as they appear in the paper's legends.
const (
	MethodLPHTA      = "LP-HTA"
	MethodHGOS       = "HGOS"
	MethodAllToC     = "AllToC"
	MethodAllOffload = "AllOffload"
)

// holisticPoint holds averaged metrics for one (method, sweep-point) pair.
type holisticPoint struct {
	energy  stats.Series // joules
	latency stats.Series // seconds, mean per task
	unsat   stats.Series // fraction in [0,1]
}

// trialMetrics is one trial's per-method (energy, latency, unsat) tuple.
type trialMetrics struct {
	energy, latency, unsat float64
}

// runHolisticPoint generates Trials seeded scenarios for the given
// parameters and evaluates every method on each. Trials run over the
// options' worker pool; aggregation stays in trial order either way.
func runHolisticPoint(opts Options, params workload.Params, methods []string) (map[string]*holisticPoint, error) {
	results := make([]map[string]trialMetrics, opts.Trials)
	err := pool.ForEach(opts.Trials, opts.workers(), func(trial int) error {
		src := rng.NewSource(opts.Seed).Derive(fmt.Sprintf("holistic-%d-%d", params.NumTasks, trial)).
			Derive(params.MaxInput.String())
		sc, err := workload.GenerateHolistic(src, params)
		if err != nil {
			return err
		}
		row := make(map[string]trialMetrics, len(methods))
		for _, method := range methods {
			var (
				a   *core.Assignment
				err error
			)
			switch method {
			case MethodLPHTA:
				var res *core.HTAResult
				res, err = core.LPHTA(sc.Model, sc.Tasks, nil)
				if err == nil {
					a = res.Assignment
				}
			case MethodHGOS:
				a, err = baseline.HGOS(sc.Model, sc.Tasks)
			case MethodAllToC:
				a = baseline.AllToC(sc.Tasks)
			case MethodAllOffload:
				a, err = baseline.AllOffload(sc.Model, sc.Tasks)
			default:
				return fmt.Errorf("experiment: unknown method %q", method)
			}
			if err != nil {
				return fmt.Errorf("experiment: %s: %w", method, err)
			}
			m, err := core.Evaluate(sc.Model, sc.Tasks, a)
			if err != nil {
				return fmt.Errorf("experiment: %s: %w", method, err)
			}
			row[method] = trialMetrics{
				energy:  m.TotalEnergy.Joules(),
				latency: m.MeanLatency().Seconds(),
				unsat:   m.UnsatisfiedRate(),
			}
		}
		results[trial] = row
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string]*holisticPoint, len(methods))
	for _, m := range methods {
		out[m] = &holisticPoint{}
	}
	for _, row := range results {
		for _, method := range methods {
			tm := row[method]
			p := out[method]
			p.energy.Add(tm.energy)
			p.latency.Add(tm.latency)
			p.unsat.Add(tm.unsat)
		}
	}
	return out, nil
}

// taskCounts is the Figs. 2(a)/3/4(a) sweep: 100 to 450 tasks.
func taskCounts(quick bool) []int {
	if quick {
		return []int{100, 450}
	}
	return []int{100, 150, 200, 250, 300, 350, 400, 450}
}

// inputSizes is the Figs. 2(b)/4(b) sweep: 1000 to 5000 kB.
func inputSizes(quick bool) []units.ByteSize {
	if quick {
		return []units.ByteSize{1000 * units.Kilobyte, 5000 * units.Kilobyte}
	}
	return []units.ByteSize{
		1000 * units.Kilobyte, 2000 * units.Kilobyte, 3000 * units.Kilobyte,
		4000 * units.Kilobyte, 5000 * units.Kilobyte,
	}
}

// Table1 echoes the wireless-network parameters of Table I as used by the
// generator, demonstrating that the simulation is driven by the published
// constants.
func Table1(opts Options) (*Figure, error) {
	f := &Figure{
		ID:      "table1",
		Title:   "parameters of wireless networks",
		XLabel:  "NetWork",
		YLabel:  "Table I constants",
		Columns: []string{"Download (Mbps)", "Upload (Mbps)", "P^T (W)", "P^R (W)"},
	}
	for _, link := range []radio.Link{radio.FourG, radio.WiFi} {
		f.AddRow(link.Tech.String(),
			link.Download.Mbps(), link.Upload.Mbps(),
			float64(link.TxPower), float64(link.RxPower))
	}
	return f, nil
}

// Fig2a reproduces Fig. 2(a): total energy while the task count grows from
// 100 to 450 with 3000 kB maximum input.
func Fig2a(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodHGOS, MethodAllToC, MethodAllOffload}
	f := &Figure{
		ID: "fig2a", Title: "energy cost vs number of tasks",
		XLabel: "tasks", YLabel: "total energy (J)", Columns: methods,
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(i int) (Row, error) {
		n := counts[i]
		point, err := runHolisticPoint(opts, workload.Params{NumTasks: n}, methods)
		if err != nil {
			return Row{}, err
		}
		vals := make([]float64, len(methods))
		for k, m := range methods {
			vals[k] = point[m].energy.Mean()
		}
		return Row{X: fmt.Sprintf("%d", n), Values: vals}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig2b reproduces Fig. 2(b): total energy while the maximum input size
// grows from 1000 kB to 5000 kB with 100 tasks.
func Fig2b(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodHGOS, MethodAllToC, MethodAllOffload}
	f := &Figure{
		ID: "fig2b", Title: "energy cost vs input data size",
		XLabel: "max input (kB)", YLabel: "total energy (J)", Columns: methods,
	}
	sizes := inputSizes(opts.Quick)
	rows, err := collectIndexed(len(sizes), opts.workers(), func(i int) (Row, error) {
		size := sizes[i]
		point, err := runHolisticPoint(opts, workload.Params{NumTasks: 100, MaxInput: size}, methods)
		if err != nil {
			return Row{}, err
		}
		vals := make([]float64, len(methods))
		for k, m := range methods {
			vals[k] = point[m].energy.Mean()
		}
		return Row{X: fmt.Sprintf("%.0f", size.Kilobytes()), Values: vals}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig3 reproduces Fig. 3: the unsatisfied-task rate while the task count
// grows. AllToC is omitted exactly as in the paper ("the unsatisfied task
// rate of AllToC is quite high").
func Fig3(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodHGOS, MethodAllOffload}
	f := &Figure{
		ID: "fig3", Title: "unsatisfied task rate vs number of tasks",
		XLabel: "tasks", YLabel: "unsatisfied rate (%)", Columns: methods,
		Notes: []string{"AllToC omitted as in the paper: its rate is far higher than every other method"},
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(i int) (Row, error) {
		n := counts[i]
		point, err := runHolisticPoint(opts, workload.Params{NumTasks: n}, methods)
		if err != nil {
			return Row{}, err
		}
		vals := make([]float64, len(methods))
		for k, m := range methods {
			vals[k] = 100 * point[m].unsat.Mean()
		}
		return Row{X: fmt.Sprintf("%d", n), Values: vals}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig4a reproduces Fig. 4(a): average task latency while the task count
// grows, 3000 kB maximum input.
func Fig4a(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodHGOS, MethodAllToC, MethodAllOffload}
	f := &Figure{
		ID: "fig4a", Title: "average latency vs number of tasks",
		XLabel: "tasks", YLabel: "average latency (s)", Columns: methods,
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(i int) (Row, error) {
		n := counts[i]
		point, err := runHolisticPoint(opts, workload.Params{NumTasks: n}, methods)
		if err != nil {
			return Row{}, err
		}
		vals := make([]float64, len(methods))
		for k, m := range methods {
			vals[k] = point[m].latency.Mean()
		}
		return Row{X: fmt.Sprintf("%d", n), Values: vals}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig4b reproduces Fig. 4(b): average task latency while the maximum input
// size grows, 100 tasks.
func Fig4b(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodHGOS, MethodAllToC, MethodAllOffload}
	f := &Figure{
		ID: "fig4b", Title: "average latency vs input data size",
		XLabel: "max input (kB)", YLabel: "average latency (s)", Columns: methods,
	}
	sizes := inputSizes(opts.Quick)
	rows, err := collectIndexed(len(sizes), opts.workers(), func(i int) (Row, error) {
		size := sizes[i]
		point, err := runHolisticPoint(opts, workload.Params{NumTasks: 100, MaxInput: size}, methods)
		if err != nil {
			return Row{}, err
		}
		vals := make([]float64, len(methods))
		for k, m := range methods {
			vals[k] = point[m].latency.Mean()
		}
		return Row{X: fmt.Sprintf("%.0f", size.Kilobytes()), Values: vals}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}
