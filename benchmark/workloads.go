package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"dsmec/internal/rng"
	"dsmec/internal/scenarioio"
	"dsmec/internal/sim"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

// benchWorkload is one named set of generated inputs and the traffic run
// against them. Its end-to-end figures come from mecsim runs on the
// scenario; traced runs also serve churn on it through mecd, so every
// layer, the daemon's included, is measured on every workload.
type benchWorkload struct {
	name                     string
	devices, stations, tasks int
	// faults embeds a generated fault plan in the scenario, so mecsim's
	// simulator replay runs the fault-recovery path.
	faults bool
	online onlineShape
}

// onlineShape is the mecd traffic of a traced run. The daemon boots with
// the scenario's tasks preloaded; arrivals draw from a pool of further
// tasks generated for the same topology.
type onlineShape struct {
	pool int     // generated tasks beyond the preload
	rate float64 // phase-1 open-loop events per second
}

// Shares of a traced run's measured seconds: the mecsim loop, then phase 1
// (open loop); phase 2 (closed loop) gets the rest.
const (
	tracedBatchShare  = 0.5
	tracedPhase1Share = 0.3
)

var workloads = []*benchWorkload{
	// ~500 tasks per cluster: cold two-phase LP solves dominate. Every
	// daemon re-solve is cold too (the cluster LPs need the relaxation
	// fallback), ~0.1 s, hence the low open-loop rate.
	{name: "batch-large-clusters", devices: 400, stations: 40, tasks: 20000,
		online: onlineShape{pool: 2000, rate: 5}},
	// ~50 tasks per cluster over a 31 MB document with a fault plan:
	// decode, the fault-recovery simulator and small LPs share the time;
	// the daemon re-solves warm.
	{name: "batch-many-stations", devices: 10000, stations: 2000, tasks: 100000, faults: true,
		online: onlineShape{pool: 20000, rate: 100}},
}

func findWorkload(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// inputs are one invocation's generated inputs.
type inputs struct {
	scenarioPath  string
	scenarioBytes int64
	// pool holds the arrival tasks as request bodies, in generation
	// order.
	pool []taskDoc
}

// prepareInputs generates the workload's scenario from seed and writes it
// to dir. Only the scenario file and the request bodies reach the program.
func prepareInputs(w *benchWorkload, seed int64, dir string) (*inputs, error) {
	n := w.tasks + w.online.pool
	sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
		NumDevices: w.devices, NumStations: w.stations, NumTasks: n,
	})
	if err != nil {
		return nil, err
	}
	var fp *sim.FaultPlan
	if w.faults {
		fp = sim.GenerateFaultPlan(rng.NewSource(seed).Derive("faults"), sc.System, sim.DefaultFaultParams())
	}
	all := sc.Tasks
	head := &task.Set{}
	head.Grow(w.tasks)
	for i := 0; i < w.tasks; i++ {
		t := *all.At(i)
		if err := head.Add(&t); err != nil {
			return nil, err
		}
	}
	sc.Tasks = head

	in := &inputs{scenarioPath: filepath.Join(dir, "scenario.json")}
	for i := w.tasks; i < all.Len(); i++ {
		in.pool = append(in.pool, docFromTask(all.At(i)))
	}
	f, err := os.Create(in.scenarioPath)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = scenarioio.EncodeWithFaults(bw, sc, fp)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", in.scenarioPath, err)
	}
	st, err := os.Stat(in.scenarioPath)
	if err != nil {
		return nil, err
	}
	in.scenarioBytes = st.Size()
	return in, nil
}

// loadScenario decodes the scenario file as the program does, so in-process
// checks see the exact model and tasks the binaries see.
func loadScenario(path string) (*workload.Scenario, *sim.FaultPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return scenarioio.DecodeWithFaults(bufio.NewReaderSize(f, 1<<20))
}
