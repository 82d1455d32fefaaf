package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// mecsimTimeout bounds one mecsim run; a run that hits it failed.
const mecsimTimeout = 60 * time.Second

// mecsimRun is one timed mecsim process.
type mecsimRun struct {
	wall   time.Duration // exec to exit
	setup  time.Duration // exec to the "scenario:" line: process start and decode
	assign time.Duration // exec to the LP-HTA table row: assignments reported
	rssMB  float64
	stdout []byte
}

// runMecsim execs mecsim with args and times it from exec to exit,
// stamping the moments its first report lines appear on stdout.
func runMecsim(bin string, args []string) (*mecsimRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), mecsimTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	r := &mecsimRun{}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	br := bufio.NewReader(pipe)
	for {
		line, err := br.ReadBytes('\n')
		out.Write(line)
		switch {
		case r.setup == 0 && bytes.HasPrefix(line, []byte("scenario:")):
			r.setup = time.Since(start)
		case r.assign == 0 && bytes.HasPrefix(line, []byte("LP-HTA ")):
			r.assign = time.Since(start)
		}
		if err != nil {
			break
		}
	}
	werr := cmd.Wait()
	r.wall = time.Since(start)
	r.stdout = out.Bytes()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	if werr != nil {
		return r, fmt.Errorf("mecsim %s: %v: %s", strings.Join(args, " "), werr, lastLines(stderr.String(), 3))
	}
	if r.setup == 0 || r.assign == 0 {
		return r, fmt.Errorf("mecsim %s: report lacks its scenario line or LP-HTA row", strings.Join(args, " "))
	}
	return r, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// report holds the fields of a mecsim holistic report the checks use.
type report struct {
	devices, stations, tasks int
	energyJ                  float64 // LP-HTA total energy after repair
	unsatisfied              float64 // LP-HTA analytic unsatisfied share
	counts                   [4]int  // device/station/cloud/cancelled
	lpOptimumJ               float64
	deltaJ                   float64
	misses                   int // DES deadline misses
	lost                     int // tasks the fault recovery gave up on
}

var (
	reScenario  = regexp.MustCompile(`(?m)^scenario: (\d+) devices, (\d+) stations, (\d+) holistic tasks$`)
	reLPHTARow  = regexp.MustCompile(`(?m)^LP-HTA +([0-9.]+) +([0-9.]+) +([0-9.]+)% +(\d+)/(\d+)/(\d+)/(\d+) *$`)
	reInternals = regexp.MustCompile(`(?m)^LP-HTA internals: LP optimum ([0-9.]+) J over (\d+) simplex iterations; (\d+) fractional tasks; Δ = ([0-9.e+-]+)J;`)
	reReplay    = regexp.MustCompile(`(?m)^discrete-event replay of LP-HTA: .*, (\d+) deadline misses under queueing$`)
	reLost      = regexp.MustCompile(`(?m)^recovery: .*, (\d+) tasks lost;`)
)

// parseReport extracts the checked fields from mecsim's stdout.
func parseReport(out []byte) (*report, error) {
	s := string(out)
	m := reScenario.FindStringSubmatch(s)
	if m == nil {
		return nil, errors.New("report: no scenario line")
	}
	r := &report{devices: atoi(m[1]), stations: atoi(m[2]), tasks: atoi(m[3])}
	if m = reLPHTARow.FindStringSubmatch(s); m == nil {
		return nil, errors.New("report: no LP-HTA row")
	}
	r.energyJ = atof(m[1])
	r.unsatisfied = atof(m[3]) / 100
	for i := range r.counts {
		r.counts[i] = atoi(m[4+i])
	}
	if m = reInternals.FindStringSubmatch(s); m == nil {
		return nil, errors.New("report: no LP-HTA internals line")
	}
	r.lpOptimumJ = atof(m[1])
	r.deltaJ = atof(m[4])
	if m = reReplay.FindStringSubmatch(s); m == nil {
		return nil, errors.New("report: no discrete-event replay line")
	}
	r.misses = atoi(m[1])
	if m = reLost.FindStringSubmatch(s); m != nil {
		r.lost = atoi(m[1])
	}
	return r, nil
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s) // the regexps admit digits only
	return v
}

func atof(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64) // the regexps admit numbers only
	return v
}

// checkReport applies the invariants that hold at any seed to one report.
func checkReport(r *report, wantTasks int) error {
	if r.tasks != wantTasks {
		return fmt.Errorf("report covers %d tasks, the scenario has %d", r.tasks, wantTasks)
	}
	if sum := r.counts[0] + r.counts[1] + r.counts[2] + r.counts[3]; sum != r.tasks {
		return fmt.Errorf("LP-HTA placements sum to %d, want %d", sum, r.tasks)
	}
	if r.unsatisfied < 0 || r.unsatisfied > 1 {
		return fmt.Errorf("unsatisfied share %v outside [0,1]", r.unsatisfied)
	}
	// Theorem 2: Step 3 rounding costs at most 3·E_LP and the repair steps
	// add at most Δ; cancellations only remove energy. The slack covers
	// the report's one-decimal rounding.
	if limit := 3*r.lpOptimumJ + r.deltaJ + 0.2; r.energyJ > limit {
		return fmt.Errorf("LP-HTA energy %.1f J exceeds 3·E_LP + Δ = %.1f J", r.energyJ, limit)
	}
	if r.misses > r.tasks || r.lost > r.tasks {
		return fmt.Errorf("simulator reports %d misses and %d lost of %d tasks", r.misses, r.lost, r.tasks)
	}
	return nil
}

// reIterations matches the simplex iteration count, a work counter the
// reference comparison skips.
var reIterations = regexp.MustCompile(`over \d+ simplex iterations`)

// maskCounters blanks the work counters in a report so that a solver
// change that leaves the outputs alone still matches the reference.
func maskCounters(out []byte) []byte {
	return reIterations.ReplaceAll(out, []byte("over N simplex iterations"))
}

// checkReference compares a default-seed report with the committed one.
func checkReference(out []byte, refPath string) error {
	want, err := os.ReadFile(refPath)
	if err != nil {
		return fmt.Errorf("reading reference: %w", err)
	}
	if got := maskCounters(out); !bytes.Equal(got, want) {
		return fmt.Errorf("report differs from the reference %s at line %d", refPath, firstDiffLine(got, want))
	}
	return nil
}

func firstDiffLine(a, b []byte) int {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}

// mecsimArgs are the flags of the timed runs.
func mecsimArgs(w *benchWorkload, in *inputs) []string {
	args := []string{"-load", in.scenarioPath}
	if w.faults {
		args = append(args, "-faults")
	}
	return args
}

// batchResult is the outcome of the mecsim part of a run.
type batchResult struct {
	runs   []*mecsimRun
	report *report // of the first timed run
	rssMB  float64
}

// runBatch checks mecsim's determinism once, then runs it back to back for
// budget (at least three times), checking every report.
func runBatch(opts *options, in *inputs, budget time.Duration, led *ledger) *batchResult {
	w := opts.workload
	bin := filepath.Join(opts.binDir, "mecsim")
	args := mecsimArgs(w, in)
	res := &batchResult{}

	// Once per invocation, outside the timed loop: a sequential,
	// single-shard run with the metrics manifest on must print the same
	// report as the timed runs, and its simulator must conserve tasks. It
	// also warms the page cache for the timed runs.
	manifest := filepath.Join(opts.workDir, "mecsim.manifest.json")
	seq, err := runMecsim(bin, append(append([]string(nil), args...),
		"-parallel", "1", "-shards", "1", "-metrics", manifest))
	if err == nil {
		err = checkConservation(manifest, w.tasks)
	}
	led.op("mecsim-determinism", err)
	var seqReport []byte
	if seq != nil {
		seqReport, _, _ = bytes.Cut(seq.stdout, []byte("\nrun manifest: "))
		res.rssMB = seq.rssMB
	}

	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < budget; n++ {
		r, err := runMecsim(bin, args)
		if err == nil {
			err = checkRun(r, res, w.tasks)
		}
		if err == nil && n == 0 {
			if !bytes.Equal(seqReport, r.stdout) {
				err = errors.New("-parallel 1 -shards 1 report differs from the default run's")
			}
			if err == nil {
				err = referenceStep(opts, r.stdout)
			}
		}
		led.op("mecsim", err)
		if r != nil {
			res.rssMB = max(res.rssMB, r.rssMB)
		}
		if n == 0 && err != nil {
			// Without one good report there is nothing to time.
			return res
		}
	}
	return res
}

// checkRun parses and checks one timed run, and requires every run of an
// invocation to print the same report. A good run joins res.runs.
func checkRun(r *mecsimRun, res *batchResult, tasks int) error {
	rep, err := parseReport(r.stdout)
	if err != nil {
		return err
	}
	if err := checkReport(rep, tasks); err != nil {
		return err
	}
	if len(res.runs) > 0 && !bytes.Equal(r.stdout, res.runs[0].stdout) {
		return errors.New("report differs from the first run's: mecsim is not deterministic")
	}
	if res.report == nil {
		res.report = rep
	}
	res.runs = append(res.runs, r)
	return nil
}

// referenceStep compares a default-seed report with the committed
// reference, or records it with -write-reference. Other seeds have no
// reference; the invariants cover them.
func referenceStep(opts *options, out []byte) error {
	if opts.seed != defaultSeed {
		return nil
	}
	path := filepath.Join(opts.refDir, opts.workload.name+".txt")
	if opts.writeRef {
		return os.WriteFile(path, maskCounters(out), 0o644)
	}
	return checkReference(out, path)
}

// checkConservation reads a mecsim manifest and requires the simulator to
// account for every task: placed + cancelled + lost = total.
func checkConservation(path string, tasks int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("manifest %s: %w", path, err)
	}
	c := m.Metrics.Counters
	placed, cancelled, lost := c["sim.tasks_placed"], c["sim.tasks_cancelled"], c["sim.tasks_lost"]
	if placed+cancelled+lost != int64(tasks) {
		return fmt.Errorf("simulator placed %d + cancelled %d + lost %d != %d tasks", placed, cancelled, lost, tasks)
	}
	return nil
}

// planS is the median wall time of the timed runs.
func (b *batchResult) planS() float64 {
	var wall []float64
	for _, r := range b.runs {
		wall = append(wall, r.wall.Seconds())
	}
	return median(wall)
}

// metrics are the end-to-end figures of the mecsim loop.
func (b *batchResult) metrics(tasks int) map[string]float64 {
	var setup, assign []float64
	for _, r := range b.runs {
		setup = append(setup, r.setup.Seconds())
		assign = append(assign, millis(r.assign))
	}
	m := map[string]float64{
		"plan_s":     b.planS(),
		"max_rss_mb": b.rssMB,
	}
	m["setup_s"] = median(setup)
	m["assign_p50_ms"] = median(assign)
	// Every task of a run is assigned at once, when the run reports, so
	// the task-weighted percentiles are those of the runs.
	m["assign_p90_ms"] = percentile(assign, 0.90)
	m["saturation_events_per_s"] = ratio(float64(tasks), median(assign)/1000)
	if r := b.report; r != nil {
		m["energy_j"] = r.energyJ
		m["unsatisfied_ratio"] = r.unsatisfied
		m["sim_miss_ratio"] = ratio(float64(r.misses), float64(r.tasks))
	} else {
		m["energy_j"], m["unsatisfied_ratio"], m["sim_miss_ratio"] = 0, 0, 0
	}
	return m
}
