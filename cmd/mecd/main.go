// Command mecd is the online assignment daemon: it keeps the LP-HTA
// cluster decomposition alive as warm per-station state and serves task
// arrivals, departures, and device churn over a JSON HTTP API. Arrivals
// batch per cluster; a solve touches only the clusters dirtied since the
// previous one, warm-starting each cluster LP from its previous optimal
// basis (dual simplex), so steady-state re-solves cost a handful of pivots
// instead of a full cold solve.
//
// Usage:
//
//	mecd                                  # 20 devices, 4 stations, empty
//	mecd -devices 50 -stations 5 -preload 100
//	mecd -load scenario.json              # fixed topology from a scenario
//	mecd -addr 127.0.0.1:8377 -metrics run.json
//	mecd -selfcheck                       # boot, run one API cycle, exit
//
// The topology (devices, stations, cost model) is fixed at boot — either
// generated from -seed/-devices/-stations or loaded from a mecgen scenario
// document. Device joins and leaves toggle a provisioned device's
// presence; task arrivals and departures mutate only the raising device's
// station shard. See docs/SERVICE.md for the API reference.
//
// Exit codes: 0 success, 1 runtime or selfcheck failure, 2 scenario parse
// failure.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/scenarioio"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	var pe *scenarioParseError
	if errors.As(err, &pe) {
		// Structured, machine-readable parse failure, matching the
		// mecsim/mecstat contract: wrappers must be able to tell "bad
		// input" from "regression".
		_ = json.NewEncoder(os.Stderr).Encode(map[string]string{
			"error":  "scenario_parse",
			"path":   pe.Path,
			"detail": pe.Err.Error(),
		})
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "mecd:", err)
	os.Exit(1)
}

// scenarioParseError marks a malformed -load document.
type scenarioParseError struct {
	Path string
	Err  error
}

func (e *scenarioParseError) Error() string {
	return fmt.Sprintf("parsing scenario %s: %v", e.Path, e.Err)
}

func (e *scenarioParseError) Unwrap() error { return e.Err }

// testHookListening, when set by a test, is called synchronously with the
// server's base URL once the listener is accepting connections.
var testHookListening func(url string)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mecd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8377", "HTTP listen address")
		seed        = fs.Int64("seed", 1, "root random seed for the generated topology")
		devices     = fs.Int("devices", 20, "number of provisioned mobile devices")
		stations    = fs.Int("stations", 4, "number of base stations")
		preload     = fs.Int("preload", 0, "generate this many tasks and enqueue them before serving")
		inputKB     = fs.Int("input", 3000, "maximum generated task input size (kB)")
		load        = fs.String("load", "", "load the topology (and preload the tasks) from a scenario JSON document")
		parallel    = fs.Int("parallel", 0, "dirty-shard solver worker count (0 = one per station); responses are byte-identical for any value")
		metricsPath = fs.String("metrics", "", "write a run manifest (metrics + environment) to this JSON file on shutdown")
		logLevel    = fs.String("log-level", "info", "structured log level on stderr: debug, info, warn, error, or off")
		logFormat   = fs.String("log-format", "text", "structured log encoding: text or json")
		selfcheck   = fs.Bool("selfcheck", false, "boot on a random port, drive one arrival/assign/departure cycle through the HTTP API, and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	obs.SetGlobalLogger(logger)

	m, ts, err := bootModel(*load, *seed, *devices, *stations, *preload, *inputKB)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	manifest := obs.NewManifest("mecd", args)
	manifest.SetSeed(*seed)
	srv, err := newServer(m, reg, manifest, logger, *parallel)
	if err != nil {
		return err
	}
	if ts != nil {
		if err := srv.preload(ts); err != nil {
			return err
		}
	}

	if *selfcheck {
		return runSelfcheck(srv, m, stdout)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	url := "http://" + l.Addr().String()
	logger.Info("mecd listening", "url", url,
		"devices", m.System().NumDevices(), "stations", m.System().NumStations())
	fmt.Fprintf(stdout, "mecd listening on %s\n", url)
	if testHookListening != nil {
		testHookListening(url)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- http.Serve(l, srv) }()
	select {
	case <-ctx.Done():
		_ = l.Close()
		<-errc // wait for Serve to return before finalizing the manifest
		err = nil
	case err = <-errc:
		if errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	if *metricsPath != "" {
		manifest.Finish(reg)
		if werr := manifest.WriteFile(*metricsPath); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// bootModel builds the fixed boot topology and the optional preload task
// set: from a scenario document with -load, generated otherwise.
func bootModel(load string, seed int64, devices, stations, preload, inputKB int) (*costmodel.Model, *task.Set, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		sc, _, err := scenarioio.DecodeWithFaults(bufio.NewReaderSize(f, 1<<20))
		if err != nil {
			return nil, nil, &scenarioParseError{Path: load, Err: err}
		}
		if sc.Placement != nil {
			return nil, nil, fmt.Errorf("%s holds a divisible scenario; mecd serves holistic tasks", load)
		}
		return sc.Model, sc.Tasks, nil
	}
	// The generator refuses empty task populations; generate at least one
	// task for the topology draw and preload only what was asked for.
	n := preload
	if n < 1 {
		n = 1
	}
	sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
		NumDevices:  devices,
		NumStations: stations,
		NumTasks:    n,
		MaxInput:    units.ByteSize(inputKB) * units.Kilobyte,
	})
	if err != nil {
		return nil, nil, err
	}
	if preload < 1 {
		return sc.Model, nil, nil
	}
	return sc.Model, sc.Tasks, nil
}

// runSelfcheck boots the daemon on a loopback port and drives one full
// arrival → assignments → departure → assignments → metrics cycle through
// the real HTTP stack, verifying every response. It is the `make verify`
// smoke for the service.
func runSelfcheck(srv *server, m *costmodel.Model, stdout io.Writer) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go func() { _ = http.Serve(l, srv) }()
	base := "http://" + l.Addr().String()

	// A task that cannot collide with any preload and is trivially
	// feasible on its home device.
	probe := scenarioio.TaskDoc{
		User:      0,
		Index:     1 << 20,
		OpBytes:   100e3,
		Resource:  1,
		DeadlineS: 100,
	}
	body, err := json.Marshal(probe)
	if err != nil {
		return err
	}
	post, err := http.Post(base+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	if err := expectStatus(post, http.StatusAccepted); err != nil {
		return fmt.Errorf("selfcheck arrival: %w", err)
	}

	find := func() (bool, error) {
		var doc assignmentsDoc
		if err := getJSON(base+"/v1/assignments", &doc); err != nil {
			return false, err
		}
		for _, a := range doc.Assignments {
			if a.User == probe.User && a.Index == probe.Index {
				return true, nil
			}
		}
		return false, nil
	}
	if found, err := find(); err != nil {
		return fmt.Errorf("selfcheck assignments: %w", err)
	} else if !found {
		return fmt.Errorf("selfcheck: task %d/%d missing from assignments", probe.User, probe.Index)
	}

	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/tasks/%d/%d", base, probe.User, probe.Index), nil)
	if err != nil {
		return err
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	if err := expectStatus(del, http.StatusOK); err != nil {
		return fmt.Errorf("selfcheck departure: %w", err)
	}
	if found, err := find(); err != nil {
		return err
	} else if found {
		return fmt.Errorf("selfcheck: task %d/%d still assigned after departure", probe.User, probe.Index)
	}

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := getJSON(base+"/metrics.json", &snap); err != nil {
		return fmt.Errorf("selfcheck metrics: %w", err)
	}
	for _, c := range []string{"mecd.arrivals", "mecd.departures", "mecd.solves"} {
		if snap.Counters[c] == 0 {
			return fmt.Errorf("selfcheck: counter %s missing from /metrics.json", c)
		}
	}
	fmt.Fprintf(stdout, "mecd selfcheck ok: %d devices, %d stations, arrival/assign/departure cycle verified\n",
		m.System().NumDevices(), m.System().NumStations())
	return nil
}

func expectStatus(resp *http.Response, want int) error {
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		return fmt.Errorf("status %d (want %d): %s", resp.StatusCode, want, b)
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
