// Command benchmark is the repository benchmark. It builds scenario inputs
// from a seed, drives the real mecsim binary for the end-to-end metrics,
// checks every output it times, and, with -trace 1, also drives mecd and
// times the library layers in process for the per-layer metrics.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	benchmark -workload batch-large-clusters -seed 1 -seconds 40 -trace 0
//
// The last stdout line is one JSON object with the keys correct, attempted,
// failed and metrics. The line before it records the machine class the
// numbers were taken on. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed the committed references were recorded at.
const defaultSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line settings of one invocation.
type options struct {
	workload *benchWorkload
	seed     int64
	budget   time.Duration
	trace    bool
	binDir   string
	workDir  string
	refDir   string
	writeRef bool
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run (see README.md)")
		seed     = fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds  = fs.Int("seconds", 10, "measured seconds per run")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		build    = fs.String("build", ".bench_build", "directory holding bin/ (the built binaries) and the generated inputs")
		refDir   = fs.String("references", "benchmark/reference", "directory of the committed default-seed reports")
		writeRef = fs.Bool("write-reference", false, "record the default-seed mecsim report as the workload's reference instead of checking it")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w := findWorkload(*name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if *writeRef && *seed != defaultSeed {
		return nil, fmt.Errorf("references are recorded at the default seed %d", defaultSeed)
	}
	return &options{
		workload: w,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		binDir:   filepath.Join(*build, "bin"),
		workDir:  filepath.Join(*build, "work", w.name),
		refDir:   *refDir,
		writeRef: *writeRef,
	}, nil
}

func run(args []string, stdout io.Writer) error {
	opts, err := parseArgs(args)
	if err != nil {
		return err
	}
	for _, bin := range []string{"mecsim", "mecd"} {
		if _, err := os.Stat(filepath.Join(opts.binDir, bin)); err != nil {
			return fmt.Errorf("program binary missing (build it with run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return err
	}
	in, err := prepareInputs(opts.workload, opts.seed, opts.workDir)
	if err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}

	var (
		led     ledger
		metrics map[string]float64
	)
	if opts.trace {
		metrics, err = runTraced(opts, in, &led)
	} else {
		metrics, err = runEndToEnd(opts, in, &led)
	}
	if err != nil {
		return err
	}
	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	out, err := renderMetrics(specs, metrics)
	if err != nil {
		return err
	}

	for _, msg := range led.problems {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	ctx := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Trace    bool                  `json:"trace"`
		Machine  machineClass          `json:"machine"`
		Phases   map[string]phaseCount `json:"phases"`
	}{opts.workload.name, opts.seed, opts.trace, currentMachine(), led.phases}
	line, err := json.Marshal(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))

	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{led.correct(), led.attempted, led.failed, out}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// runEndToEnd measures a workload through mecsim runs alone.
func runEndToEnd(opts *options, in *inputs, led *ledger) (map[string]float64, error) {
	return runBatch(opts, in, opts.budget, led).metrics(opts.workload.tasks), nil
}

// runTraced runs mecsim for the workload's share of the budget (for the
// untraced baseline and the output checks) and mecd for the rest, then
// the mecsim pipeline in process with the program's observability on,
// timing each layer's public functions.
func runTraced(opts *options, in *inputs, led *ledger) (map[string]float64, error) {
	batchBudget := time.Duration(float64(opts.budget) * tracedBatchShare)
	b := runBatch(opts, in, batchBudget, led)
	phase1 := time.Duration(float64(opts.budget) * tracedPhase1Share)
	o, err := runOnline(opts, in, phase1, opts.budget-batchBudget-phase1, led)
	if err != nil {
		return nil, err
	}
	lr, err := runLayers(opts, in, led)
	if err != nil {
		return nil, err
	}
	// The library must compute what the binary reported.
	if b.report != nil {
		led.check("trace", compareReports(b.report, lr.report))
	}
	return layerMetrics(lr, b, o, led.failedRatio()), nil
}

// machineClass identifies the hardware class a result was measured on, so
// numbers from different classes are never compared as equal.
type machineClass struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentMachine() machineClass {
	return machineClass{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      nproc(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}
