package perfbench

import (
	"bytes"
	"fmt"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/lp"
	"dsmec/internal/rng"
	"dsmec/internal/scenarioio"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

// clusterShape fixes how ClusterLP spreads tasks over devices: the C2 row
// density matches what core's buildP2 builds for a generated cluster.
const devicesPerCluster = 10

// ClusterLP builds the LP relaxation P2 of one LP-HTA cluster with the
// given task count, shaped exactly like internal/core's buildP2
// output: 3 variables per task, one C4 equality row per task, one C2 row
// per device, and a C3 station row. sparse selects the index/value row
// form; dense materializes every row as a full 3n vector. Coefficients are
// seeded, so dense and sparse instances describe the identical LP.
func ClusterLP(tasks int, sparse bool) *lp.Problem {
	r := rng.NewSource(7).Stream(fmt.Sprintf("clusterlp-%d", tasks))
	n := 3 * tasks
	p := &lp.Problem{
		Minimize: make([]float64, n),
		Upper:    make([]float64, n),
	}
	resource := make([]float64, tasks)
	for i := 0; i < tasks; i++ {
		resource[i] = 1 + r.Float64()*3
		// Device < station < cloud energy, as in the paper's instances.
		base := 1 + r.Float64()
		p.Minimize[3*i] = base
		p.Minimize[3*i+1] = base * (1.5 + r.Float64())
		p.Minimize[3*i+2] = base * (3 + r.Float64())
		for l := 0; l < 3; l++ {
			p.Upper[3*i+l] = 0.5 + r.Float64()/2 // deadline-derived, capped at 1
		}
	}

	row := func(cols []int, vals []float64, sense lp.Sense, rhs float64) lp.Constraint {
		if sparse {
			return lp.Sparse(cols, vals, sense, rhs)
		}
		coeffs := make([]float64, n)
		for k, c := range cols {
			coeffs[c] = vals[k]
		}
		return lp.Constraint{Coeffs: coeffs, Sense: sense, RHS: rhs}
	}

	for i := 0; i < tasks; i++ {
		p.Constraints = append(p.Constraints,
			row([]int{3 * i, 3*i + 1, 3*i + 2}, []float64{1, 1, 1}, lp.EQ, 1))
	}
	for dev := 0; dev < devicesPerCluster; dev++ {
		var cols []int
		var vals []float64
		load := 0.0
		for i := dev; i < tasks; i += devicesPerCluster {
			cols = append(cols, 3*i)
			vals = append(vals, resource[i])
			load += resource[i]
		}
		if len(cols) == 0 {
			continue
		}
		p.Constraints = append(p.Constraints, row(cols, vals, lp.LE, load*0.6))
	}
	cols := make([]int, tasks)
	vals := make([]float64, tasks)
	total := 0.0
	for i := 0; i < tasks; i++ {
		cols[i] = 3*i + 1
		vals[i] = resource[i]
		total += resource[i]
	}
	p.Constraints = append(p.Constraints, row(cols, vals, lp.LE, total*0.5))
	return p
}

// HolisticScenario generates the seeded scenario the LPHTA and simulator
// benchmarks run against.
func HolisticScenario(tasks int) (*workload.Scenario, error) {
	return workload.GenerateHolistic(rng.NewSource(1), workload.Params{NumTasks: tasks})
}

// ScaledScenario generates a seeded scenario with an explicit topology,
// for large-scale benchmarks where the station count (and with it the
// LP-HTA cluster size) must grow with the task population.
func ScaledScenario(devices, stations, tasks int) (*workload.Scenario, error) {
	return workload.GenerateHolistic(rng.NewSource(1), workload.Params{
		NumDevices: devices, NumStations: stations, NumTasks: tasks,
	})
}

// ScenarioDocument renders the seeded holistic scenario to its JSON
// document form, the input of the scenario_decode benchmark.
func ScenarioDocument(tasks int) ([]byte, error) {
	sc, err := HolisticScenario(tasks)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := scenarioio.Encode(&buf, sc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Assign runs LP-HTA once to produce an assignment for simulator
// benchmarks.
func Assign(m *costmodel.Model, ts *task.Set) (*core.Assignment, error) {
	res, err := core.LPHTA(m, ts, nil)
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}
