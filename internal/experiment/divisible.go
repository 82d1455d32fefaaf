package experiment

import (
	"fmt"

	"dsmec/internal/compute"
	"dsmec/internal/core"
	"dsmec/internal/pool"
	"dsmec/internal/rng"
	"dsmec/internal/stats"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// DTA method names as in the paper's figures.
const (
	MethodDTAWorkload = "DTA-Workload"
	MethodDTANumber   = "DTA-Number"
)

// divisiblePoint holds averaged DTA metrics for one sweep point.
type divisiblePoint struct {
	energy   map[string]*stats.Series // method -> joules
	procTime map[string]*stats.Series // method -> seconds
	involved map[string]*stats.Series // method -> device count
}

// divisibleTrial is one trial's measurements.
type divisibleTrial struct {
	htaEnergy float64
	dta       map[string]core.DTAMetrics
}

// runDivisiblePoint generates Trials divisible scenarios and runs LP-HTA
// (holistic treatment) plus both DTA goals on each. Trials run over the
// options' worker pool.
func runDivisiblePoint(opts Options, params workload.Params) (*divisiblePoint, error) {
	results := make([]divisibleTrial, opts.Trials)
	err := pool.ForEach(opts.Trials, opts.workers(), func(trial int) error {
		src := rng.NewSource(opts.Seed).
			Derive(fmt.Sprintf("divisible-%d-%d-%v", params.NumTasks, trial, params.MaxInput))
		sc, err := workload.GenerateDivisible(src, params)
		if err != nil {
			return err
		}

		// Holistic LP-HTA treats the same divisible tasks as indivisible:
		// raw data moves.
		hta, err := core.LPHTA(sc.Model, sc.Tasks, nil)
		if err != nil {
			return err
		}
		htaMetrics, err := core.Evaluate(sc.Model, sc.Tasks, hta.Assignment)
		if err != nil {
			return err
		}
		tr := divisibleTrial{
			htaEnergy: htaMetrics.TotalEnergy.Joules(),
			dta:       make(map[string]core.DTAMetrics, 2),
		}
		for _, goal := range []core.Goal{core.GoalWorkload, core.GoalNumber} {
			res, err := core.DTA(sc.Model, sc.Tasks, sc.Placement, core.DTAOptions{Goal: goal})
			if err != nil {
				return err
			}
			tr.dta[goal.String()] = res.Metrics
		}
		results[trial] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}

	p := &divisiblePoint{
		energy:   map[string]*stats.Series{},
		procTime: map[string]*stats.Series{},
		involved: map[string]*stats.Series{},
	}
	series := func(m map[string]*stats.Series, key string) *stats.Series {
		if m[key] == nil {
			m[key] = &stats.Series{}
		}
		return m[key]
	}
	for _, tr := range results {
		series(p.energy, MethodLPHTA).Add(tr.htaEnergy)
		for _, goal := range []core.Goal{core.GoalWorkload, core.GoalNumber} {
			name := goal.String()
			m := tr.dta[name]
			series(p.energy, name).Add(m.TotalEnergy.Joules())
			series(p.procTime, name).Add(m.ProcessingTime.Seconds())
			series(p.involved, name).Add(float64(m.InvolvedDevices))
		}
	}
	return p, nil
}

// Fig5a reproduces Fig. 5(a): total energy of LP-HTA, DTA-Workload and
// DTA-Number while the task count grows (3000 kB inputs, η = 0.2).
func Fig5a(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodDTAWorkload, MethodDTANumber}
	f := &Figure{
		ID: "fig5a", Title: "energy of LP-HTA vs DTA variants, growing task count",
		XLabel: "tasks", YLabel: "total energy (J)", Columns: methods,
	}
	counts := taskCounts(opts.Quick)
	rows, err := collectIndexed(len(counts), opts.workers(), func(i int) (Row, error) {
		n := counts[i]
		point, err := runDivisiblePoint(opts, workload.Params{NumTasks: n})
		if err != nil {
			return Row{}, err
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			point.energy[MethodLPHTA].Mean(),
			point.energy[MethodDTAWorkload].Mean(),
			point.energy[MethodDTANumber].Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig5b reproduces Fig. 5(b): total energy for result sizes 0.4X, 0.2X,
// 0.1X, 0.05X and a constant (100 tasks, 3000 kB inputs).
func Fig5b(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	methods := []string{MethodLPHTA, MethodDTAWorkload, MethodDTANumber}
	f := &Figure{
		ID: "fig5b", Title: "energy of LP-HTA vs DTA variants, shrinking result size",
		XLabel: "result size", YLabel: "total energy (J)", Columns: methods,
	}
	resultModels := []struct {
		label string
		model compute.ResultModel
	}{
		{"0.4X", compute.ProportionalResult{Ratio: 0.4}},
		{"0.2X", compute.ProportionalResult{Ratio: 0.2}},
		{"0.1X", compute.ProportionalResult{Ratio: 0.1}},
		{"0.05X", compute.ProportionalResult{Ratio: 0.05}},
		{"const", compute.ConstantResult{Size: 8 * units.Kilobyte}},
	}
	if opts.Quick {
		resultModels = []struct {
			label string
			model compute.ResultModel
		}{resultModels[0], resultModels[len(resultModels)-1]}
	}
	rows, err := collectIndexed(len(resultModels), opts.workers(), func(i int) (Row, error) {
		rm := resultModels[i]
		point, err := runDivisiblePoint(opts, workload.Params{
			NumTasks:    100,
			ResultModel: rm.model,
		})
		if err != nil {
			return Row{}, err
		}
		return Row{X: rm.label, Values: []float64{
			point.energy[MethodLPHTA].Mean(),
			point.energy[MethodDTAWorkload].Mean(),
			point.energy[MethodDTANumber].Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig6a reproduces Fig. 6(a): DTA processing time while the maximum input
// size grows from 1200 kB to 2000 kB (200 tasks).
func Fig6a(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "fig6a", Title: "processing time of DTA-Workload vs DTA-Number",
		XLabel: "max input (kB)", YLabel: "processing time (s)",
		Columns: []string{MethodDTAWorkload, MethodDTANumber},
	}
	sizes := []units.ByteSize{
		1200 * units.Kilobyte, 1400 * units.Kilobyte, 1600 * units.Kilobyte,
		1800 * units.Kilobyte, 2000 * units.Kilobyte,
	}
	if opts.Quick {
		sizes = []units.ByteSize{sizes[0], sizes[len(sizes)-1]}
	}
	rows, err := collectIndexed(len(sizes), opts.workers(), func(i int) (Row, error) {
		size := sizes[i]
		point, err := runDivisiblePoint(opts, workload.Params{NumTasks: 200, MaxInput: size})
		if err != nil {
			return Row{}, err
		}
		return Row{X: fmt.Sprintf("%.0f", size.Kilobytes()), Values: []float64{
			point.procTime[MethodDTAWorkload].Mean(),
			point.procTime[MethodDTANumber].Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}

// Fig6b reproduces Fig. 6(b): the number of involved devices while the
// task count grows from 100 to 900 (2000 kB inputs).
func Fig6b(opts Options) (*Figure, error) {
	opts = opts.withDefaults()
	f := &Figure{
		ID: "fig6b", Title: "involved devices of DTA-Workload vs DTA-Number",
		XLabel: "tasks", YLabel: "involved mobile devices",
		Columns: []string{MethodDTAWorkload, MethodDTANumber},
	}
	counts := []int{100, 300, 500, 700, 900}
	if opts.Quick {
		counts = []int{100, 900}
	}
	rows, err := collectIndexed(len(counts), opts.workers(), func(i int) (Row, error) {
		n := counts[i]
		point, err := runDivisiblePoint(opts, workload.Params{
			NumTasks: n, MaxInput: 2000 * units.Kilobyte,
		})
		if err != nil {
			return Row{}, err
		}
		return Row{X: fmt.Sprintf("%d", n), Values: []float64{
			point.involved[MethodDTAWorkload].Mean(),
			point.involved[MethodDTANumber].Mean(),
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	f.Rows = rows
	return f, nil
}
