package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/task"
	"dsmec/internal/units"
)

const (
	// loadHeadroom is the share of a device's preloaded resource demand
	// the churn holds it at. Below 1 it leaves slack for the random mix of
	// arriving tasks, whose deadlines and demands differ from the
	// departing ones'; without it some seeds drift into infeasible cluster
	// LPs and a run of cold re-solves.
	loadHeadroom = 0.9
	// sloLatency is the assignment latency target of the open loop.
	sloLatency = 50 * time.Millisecond
	// churnEvery and readEvery space the device leave-and-rejoin and the
	// GET /v1/assignments that ride along with the events.
	churnEvery = 50
	readEvery  = 100
	// bootCount is how many times set-up is repeated; setup_s is the median.
	bootCount = 3
	// daemonTimeout bounds a boot, a request and a shutdown.
	daemonTimeout = 30 * time.Second
)

// taskDoc mirrors the body of mecd's POST /v1/tasks.
type taskDoc struct {
	User           int     `json:"user"`
	Index          int     `json:"index"`
	OpBytes        int64   `json:"op_bytes"`
	LocalBytes     int64   `json:"local_bytes"`
	ExternalBytes  int64   `json:"external_bytes"`
	ExternalSource *int    `json:"external_source,omitempty"`
	Resource       float64 `json:"resource"`
	DeadlineS      float64 `json:"deadline_s"`
}

func docFromTask(t *task.Task) taskDoc {
	td := taskDoc{
		User:          t.ID.User,
		Index:         t.ID.Index,
		OpBytes:       t.OpSize.Bytes(),
		LocalBytes:    t.LocalSize.Bytes(),
		ExternalBytes: t.ExternalSize.Bytes(),
		Resource:      t.Resource,
		DeadlineS:     t.Deadline.Seconds(),
	}
	if t.HasExternal() {
		src := t.ExternalSource
		td.ExternalSource = &src
	}
	return td
}

// toTask is the task the daemon builds from the body.
func (td *taskDoc) toTask() task.Task {
	t := task.Task{
		ID:             task.ID{User: td.User, Index: td.Index},
		Kind:           task.Holistic,
		OpSize:         units.ByteSize(td.OpBytes),
		LocalSize:      units.ByteSize(td.LocalBytes),
		ExternalSize:   units.ByteSize(td.ExternalBytes),
		ExternalSource: task.NoExternalSource,
		Resource:       td.Resource,
		Deadline:       units.Duration(td.DeadlineS),
	}
	if td.ExternalSource != nil {
		t.ExternalSource = *td.ExternalSource
	}
	return t
}

// solveDoc is the part of the POST /v1/solve body the checks read.
type solveDoc struct {
	Tasks          int     `json:"tasks"`
	Placed         int     `json:"placed"`
	Cancelled      int     `json:"cancelled"`
	LPObjectiveJ   float64 `json:"lp_objective_joules"`
	RoundedEnergyJ float64 `json:"rounded_energy_joules"`
}

// check applies the solve invariants: every live task is placed or
// cancelled, and Step 3 rounding is within 3·E_LP.
func (s *solveDoc) check(live int) error {
	if s.Tasks != live || s.Placed+s.Cancelled != live {
		return fmt.Errorf("solve covers %d tasks (%d placed, %d cancelled), %d are live", s.Tasks, s.Placed, s.Cancelled, live)
	}
	if s.RoundedEnergyJ > 3*s.LPObjectiveJ*(1+1e-9)+1e-9 {
		return fmt.Errorf("rounded energy %.3f J exceeds 3·E_LP = %.3f J", s.RoundedEnergyJ, 3*s.LPObjectiveJ)
	}
	return nil
}

// tailBuffer keeps the last few KiB written to it, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-4096:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// daemon is one running mecd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr tailBuffer
}

// startDaemon execs mecd on the scenario and waits for its listening line.
func startDaemon(bin, scenario string) (*daemon, error) {
	d := &daemon{}
	d.cmd = exec.Command(bin, "-load", scenario, "-addr", "127.0.0.1:0")
	d.cmd.Stderr = &d.stderr
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string, 1)
	go func() {
		br := bufio.NewReader(pipe)
		line, _ := br.ReadString('\n')
		lines <- line
		_, _ = io.Copy(io.Discard, br) // mecd prints nothing more; drain until exit
	}()
	select {
	case line := <-lines:
		const prefix = "mecd listening on "
		if !strings.HasPrefix(line, prefix) {
			_ = d.kill()
			return nil, fmt.Errorf("mecd did not start: %q %s", line, lastLines(d.stderr.String(), 3))
		}
		d.url = strings.TrimSpace(strings.TrimPrefix(line, prefix))
		return d, nil
	case <-time.After(daemonTimeout):
		_ = d.kill()
		return nil, errors.New("mecd did not start listening in time")
	}
}

func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	return d.cmd.Wait()
}

// stop sends SIGTERM, waits for the process to exit, and returns its peak
// resident set size in MB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(daemonTimeout):
		_ = d.cmd.Process.Kill()
		<-done
		err = errors.New("mecd did not exit after SIGTERM")
	}
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	if err != nil {
		return rss, fmt.Errorf("mecd exit: %v: %s", err, lastLines(d.stderr.String(), 3))
	}
	return rss, nil
}

// client issues requests to one daemon over at most nproc connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: daemonTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes the body into out (when non-nil). The
// duration runs from the moment of sending to the last byte of the body.
func (c *client) do(method, path string, body any, want int, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return time.Since(start), fmt.Errorf("%s %s: %w", method, path, err)
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return d, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return d, fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return d, fmt.Errorf("%s %s: decoding body: %w", method, path, err)
		}
	}
	return d, nil
}

// stationLive is the client's model of one station's live tasks. Only one
// churner touches a station at a time.
type stationLive struct {
	tasks    map[task.ID]task.Task
	seq      map[task.ID]int   // arrival order within the station
	byDevice map[int][]task.ID // live IDs per raising device, oldest first
	// load is the live resource demand per device; cap is the preloaded
	// demand the device is held at.
	load, cap map[int]float64
	next      int   // next arrival sequence number
	pool      []int // unsent pool indices, in generation order
}

func (s *stationLive) add(t task.Task) {
	s.tasks[t.ID] = t
	s.seq[t.ID] = s.next
	s.next++
	u := t.ID.User
	s.byDevice[u] = append(s.byDevice[u], t.ID)
	s.load[u] += t.Resource
}

func (s *stationLive) remove(id task.ID) {
	ids := s.byDevice[id.User]
	for i := range ids {
		if ids[i] == id {
			s.byDevice[id.User] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	s.load[id.User] -= s.tasks[id].Resource
	delete(s.tasks, id)
	delete(s.seq, id)
}

// population is the client's model of the daemon's live task set.
type population struct {
	m        *costmodel.Model
	stations []*stationLive
	pool     []taskDoc
}

func newPopulation(m *costmodel.Model, preload *task.Set, pool []taskDoc) (*population, error) {
	sys := m.System()
	p := &population{m: m, pool: pool, stations: make([]*stationLive, sys.NumStations())}
	for i := range p.stations {
		p.stations[i] = &stationLive{
			tasks:    make(map[task.ID]task.Task),
			seq:      make(map[task.ID]int),
			byDevice: make(map[int][]task.ID),
			load:     make(map[int]float64),
			cap:      make(map[int]float64),
		}
	}
	for i := 0; i < preload.Len(); i++ {
		t := preload.At(i)
		st, err := sys.StationOf(t.ID.User)
		if err != nil {
			return nil, err
		}
		p.stations[st].add(*t)
		p.stations[st].cap[t.ID.User] += t.Resource
	}
	for i := range pool {
		st, err := sys.StationOf(pool[i].User)
		if err != nil {
			return nil, err
		}
		p.stations[st].pool = append(p.stations[st].pool, i)
	}
	return p, nil
}

func (p *population) live() int {
	n := 0
	for _, s := range p.stations {
		n += len(s.tasks)
	}
	return n
}

// taskSet is the live population in per-station arrival order: the input
// a batch LP-HTA run must assign exactly as the daemon does.
func (p *population) taskSet() (*task.Set, error) {
	ts := &task.Set{}
	ts.Grow(p.live())
	for _, s := range p.stations {
		ids := make([]task.ID, 0, len(s.tasks))
		for id := range s.tasks {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return s.seq[ids[i]] < s.seq[ids[j]] })
		for _, id := range ids {
			t := s.tasks[id]
			if err := ts.Add(&t); err != nil {
				return nil, err
			}
		}
	}
	return ts, nil
}

// errPoolExhausted reports that the generated arrival pool ran dry, so
// the workload's pool is too small for the load.
var errPoolExhausted = errors.New("arrival pool exhausted")

// churner drives events against a subset of stations. Each churner owns
// its stations, random source and tallies, so churners run concurrently
// without sharing state.
type churner struct {
	c        *client
	p        *population
	owned    []int
	rng      *rand.Rand
	devices  []int
	requests map[string][]float64 // route → latencies (ms)
	errs     []error              // failed requests
	checks   []error              // failed output checks
	attempts int
	events   int
	sent     counts
}

// counts tallies the accepted mutations the daemon's counters must echo.
type counts struct {
	arrivals, departures, leaves, joins int
}

func newChurner(c *client, p *population, owned []int, seed int64) (*churner, error) {
	w := &churner{c: c, p: p, owned: owned, rng: rand.New(rand.NewSource(seed)),
		requests: make(map[string][]float64)}
	sys := p.m.System()
	for _, st := range owned {
		devs, err := sys.Cluster(st)
		if err != nil {
			return nil, err
		}
		w.devices = append(w.devices, devs...)
	}
	return w, nil
}

// req sends one request and records it under route.
func (w *churner) req(route, method, path string, body any, want int, out any) error {
	d, err := w.c.do(method, path, body, want, out)
	w.attempts++
	w.requests[route] = append(w.requests[route], millis(d))
	if err != nil {
		w.errs = append(w.errs, err)
	}
	return err
}

// event runs one churn event: departures of the arriving task's device's
// oldest tasks while the arrival would push it past its held demand, the
// arrival, every churnEvery-th event a device leave and rejoin, then the
// solve that covers the arrival, and every readEvery-th event a read of
// the assignments. It returns the time the solve response completed.
func (w *churner) event() (time.Time, error) {
	w.events++
	k := w.events
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// The arrival is the owned stations' next pool task in generation
	// order.
	best := -1
	for _, st := range w.owned {
		if q := w.p.stations[st].pool; len(q) > 0 && (best < 0 || q[0] < w.p.stations[best].pool[0]) {
			best = st
		}
	}
	if best < 0 {
		return time.Now(), errPoolExhausted
	}
	s := w.p.stations[best]

	doc := w.p.pool[s.pool[0]]
	s.pool = s.pool[1:]

	// The arriving task's device finishes its oldest live tasks first,
	// until the arrival fits within loadHeadroom of the device's preloaded
	// resource demand or the device has no live task left. Devices and
	// clusters so stay below their preloaded load, even transiently, and
	// each device's live tasks stay a window of its latest arrivals, a
	// steady mix: a cluster pushed past its capacity, or drifted into a mix
	// of tight deadlines, turns its LP infeasible, and every re-solve of it
	// falls back to a cold solve.
	u := doc.User
	for len(s.byDevice[u]) > 0 && s.load[u]+doc.Resource > loadHeadroom*s.cap[u] {
		id := s.byDevice[u][0]
		if err := w.req("departure", http.MethodDelete,
			fmt.Sprintf("/v1/tasks/%d/%d", id.User, id.Index), nil, http.StatusOK, nil); err != nil {
			note(err)
			break
		}
		s.remove(id)
		w.sent.departures++
	}

	if err := w.req("arrival", http.MethodPost, "/v1/tasks", doc, http.StatusAccepted, nil); err != nil {
		note(err)
	} else {
		s.add(doc.toTask())
		w.sent.arrivals++
	}

	if k%churnEvery == 0 {
		if err := w.deviceChurn(); err != nil {
			note(err)
		}
	}

	var sd solveDoc
	if err := w.req("solve", http.MethodPost, "/v1/solve", nil, http.StatusOK, &sd); err != nil {
		note(err)
	}
	solved := time.Now()

	if k%readEvery == 0 {
		var doc assignmentsDoc
		note(w.req("assignments", http.MethodGet, "/v1/assignments", nil, http.StatusOK, &doc))
	}
	return solved, firstErr
}

// deviceChurn makes a random owned device leave and rejoin. The daemon
// cancels the device's tasks on leave; the client's model follows.
func (w *churner) deviceChurn() error {
	dev := w.devices[w.rng.Intn(len(w.devices))]
	st, err := w.p.m.System().StationOf(dev)
	if err != nil {
		return err
	}
	ls := w.p.stations[st]
	mine := append([]task.ID(nil), ls.byDevice[dev]...)
	var left struct {
		Removed int `json:"removed_tasks"`
	}
	if err := w.req("device_leave", http.MethodDelete, fmt.Sprintf("/v1/devices/%d", dev), nil, http.StatusOK, &left); err != nil {
		return err
	}
	w.sent.leaves++
	for _, id := range mine {
		ls.remove(id)
	}
	if left.Removed != len(mine) {
		err := fmt.Errorf("device %d leave removed %d tasks, %d were live", dev, left.Removed, len(mine))
		w.checks = append(w.checks, err)
		return err
	}
	if err := w.req("device_join", http.MethodPost, "/v1/devices", map[string]int{"id": dev}, http.StatusOK, nil); err != nil {
		return err
	}
	w.sent.joins++
	return nil
}

// assignmentsDoc is the GET /v1/assignments body.
type assignmentsDoc struct {
	Assignments []assignmentRow `json:"assignments"`
	Summary     solveDoc        `json:"summary"`
}

// assignmentRow is one task's placement in GET /v1/assignments.
type assignmentRow struct {
	User      int    `json:"user"`
	Index     int    `json:"index"`
	Subsystem string `json:"subsystem"`
}

// checkAssignments requires the daemon's rows to equal a batch LP-HTA
// assignment of the same tasks, row for row.
func checkAssignments(doc *assignmentsDoc, m *costmodel.Model, ts *task.Set) error {
	batch, err := core.LPHTA(m, ts, &core.LPHTAOptions{})
	if err != nil {
		return fmt.Errorf("batch LP-HTA: %w", err)
	}
	if len(doc.Assignments) != ts.Len() {
		return fmt.Errorf("daemon assigns %d tasks, %d are live", len(doc.Assignments), ts.Len())
	}
	for i, row := range doc.Assignments {
		id := task.ID{User: row.User, Index: row.Index}
		if i > 0 {
			prev := doc.Assignments[i-1]
			if prev.User > row.User || (prev.User == row.User && prev.Index >= row.Index) {
				return fmt.Errorf("assignment rows out of task order at row %d", i)
			}
		}
		if _, ok := ts.IndexOf(id); !ok {
			return fmt.Errorf("daemon assigns task %v, which is not live", id)
		}
		if want := batch.Assignment.Of(id).String(); row.Subsystem != want {
			return fmt.Errorf("task %v: daemon placed %s, batch LP-HTA placed %s", id, row.Subsystem, want)
		}
	}
	return doc.Summary.check(ts.Len())
}

// metricsDoc is the part of mecd's /metrics.json the benchmark reads.
type metricsDoc struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func (m *metricsDoc) hsum(name string) float64   { return m.Histograms[name].Sum }
func (m *metricsDoc) hcount(name string) float64 { return float64(m.Histograms[name].Count) }
func (m *metricsDoc) counter(name string) float64 {
	return float64(m.Counters[name])
}

// onlineResult is the outcome of the mecd part of a run.
type onlineResult struct {
	setup     []float64 // seconds, one per boot
	rssMB     float64
	assignMs  []float64 // phase-1 due time to covering solve response
	lagMs     []float64 // phase-1 send time minus due time
	sloMet    int
	phase1    int // phase-1 events
	saturated float64
	requests  map[string][]float64
	before    *metricsDoc // after boot, before phase 1
	after     *metricsDoc // after phase 2
}

// runOnline boots mecd bootCount times for set-up, then drives phase 1
// (open loop at the workload's rate) and phase 2 (closed loop) over nproc
// connections on the last boot, checking the daemon's outputs after each
// phase.
func runOnline(opts *options, in *inputs, phase1, phase2 time.Duration, led *ledger) (*onlineResult, error) {
	w := opts.workload
	bin := filepath.Join(opts.binDir, "mecd")
	sc, _, err := loadScenario(in.scenarioPath)
	if err != nil {
		return nil, err
	}
	res := &onlineResult{requests: make(map[string][]float64)}
	conns := min(2, nproc())
	// The load generator shares the CPUs with the daemon; collect its
	// garbage less often so its own pauses perturb the timings less.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	var d *daemon
	for b := 0; b < bootCount; b++ {
		start := time.Now()
		var err error
		d, err = startDaemon(bin, in.scenarioPath)
		led.op("setup", err)
		if err != nil {
			return res, nil
		}
		c := newClient(d.url, 1)
		var sd solveDoc
		_, err = c.do(http.MethodPost, "/v1/solve", nil, http.StatusOK, &sd)
		if err == nil {
			res.setup = append(res.setup, time.Since(start).Seconds())
			err = sd.check(w.tasks)
		}
		c.close()
		led.op("setup", err)
		if b < bootCount-1 || err != nil {
			rss, serr := d.stop()
			res.rssMB = max(res.rssMB, rss)
			led.op("setup", serr)
			if err != nil {
				return res, nil
			}
		}
	}
	defer func() {
		rss, err := d.stop()
		res.rssMB = max(res.rssMB, rss)
		led.op("shutdown", err)
	}()

	c := newClient(d.url, conns)
	defer c.close()
	pop, err := newPopulation(sc.Model, sc.Tasks, in.pool)
	if err != nil {
		return nil, err
	}
	// One churner per connection, each owning an interleaved share of the
	// stations, drives both phases.
	churners := make([]*churner, conns)
	for i := range churners {
		var owned []int
		for st := i; st < len(pop.stations); st += conns {
			owned = append(owned, st)
		}
		if churners[i], err = newChurner(c, pop, owned, opts.seed+int64(i)+1); err != nil {
			return nil, err
		}
	}
	var total counts
	res.before = scrape(c, led)

	// Phase 1: open loop. Events are due at the workload's rate whether or
	// not the daemon keeps up, dealt round-robin to the churners, and each
	// is timed from its due time. A slow event delays only its own
	// churner's next one, as with independent users.
	interval := time.Duration(float64(time.Second) / w.online.rate)
	loops := make([]openLoop, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, ch := range churners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loops[i].run(ch, t0, time.Duration(conns)*interval, time.Duration(i)*interval, phase1)
		}()
	}
	wg.Wait()
	for i, ch := range churners {
		l := &loops[i]
		res.assignMs = append(res.assignMs, l.assignMs...)
		res.lagMs = append(res.lagMs, l.lagMs...)
		res.sloMet += l.sloMet
		res.phase1 += l.events
		absorb(res, ch, "phase1", led, &total)
	}
	led.check("phase1", checkDaemon(c, pop, total, res.requests, led))

	// Phase 2: closed loop. Each churner counts its completed events per
	// whole second; saturation is the median second, so a transient stall
	// (a cold re-solve, a pause on the shared CPUs) does not set the figure.
	windows := int(phase2 / time.Second)
	perSecond := make([][]float64, conns)
	start := time.Now()
	for i, ch := range churners {
		perSecond[i] = make([]float64, windows)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < phase2 {
				done, err := ch.event()
				if errors.Is(err, errPoolExhausted) {
					ch.checks = append(ch.checks, err)
					return
				}
				if sec := int(done.Sub(start) / time.Second); sec < windows {
					perSecond[i][sec]++
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, windows)
	for i, ch := range churners {
		for sec, n := range perSecond[i] {
			rates[sec] += n
		}
		absorb(res, ch, "phase2", led, &total)
	}
	res.saturated = median(rates)
	led.check("phase2", checkDaemon(c, pop, total, res.requests, led))
	res.after = scrape(c, led)
	return res, nil
}

// openLoop is one churner's share of the open-loop phase.
type openLoop struct {
	assignMs []float64 // due time to the covering solve response
	lagMs    []float64 // send time minus due time
	sloMet   int       // events assigned within sloLatency
	events   int
}

// run sends the churner's events due at t0+offset, t0+offset+every, …
// until phase has passed. A failed event counts against the SLO and has
// no latency sample.
func (l *openLoop) run(ch *churner, t0 time.Time, every, offset, phase time.Duration) {
	for due := t0.Add(offset); due.Sub(t0) < phase; due = due.Add(every) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		l.lagMs = append(l.lagMs, millis(time.Since(due)))
		solved, err := ch.event()
		l.events++
		if errors.Is(err, errPoolExhausted) {
			ch.checks = append(ch.checks, err)
			return
		}
		if err == nil {
			lat := solved.Sub(due)
			l.assignMs = append(l.assignMs, millis(lat))
			if lat <= sloLatency {
				l.sloMet++
			}
		}
	}
}

// absorb moves a churner's tallies into the result and the ledger, and
// clears them for the next phase.
func absorb(res *onlineResult, ch *churner, phase string, led *ledger, total *counts) {
	for route, ms := range ch.requests {
		res.requests[route] = append(res.requests[route], ms...)
	}
	for i := 0; i < ch.attempts-len(ch.errs); i++ {
		led.op(phase, nil)
	}
	for _, err := range ch.errs {
		led.op(phase, err)
	}
	for _, err := range ch.checks {
		led.check(phase, err)
	}
	total.arrivals += ch.sent.arrivals
	total.departures += ch.sent.departures
	total.leaves += ch.sent.leaves
	total.joins += ch.sent.joins
	ch.requests = make(map[string][]float64)
	ch.errs, ch.checks, ch.attempts, ch.sent = nil, nil, 0, counts{}
}

// scrape reads /metrics.json; nil on failure (recorded in the ledger).
func scrape(c *client, led *ledger) *metricsDoc {
	var m metricsDoc
	_, err := c.do(http.MethodGet, "/metrics.json", nil, http.StatusOK, &m)
	led.op("scrape", err)
	if err != nil {
		return nil
	}
	return &m
}

// checkDaemon compares the daemon's view with what the client sent: the
// assignments against batch LP-HTA over the live set, the state document,
// and the mutation counters.
func checkDaemon(c *client, pop *population, sent counts, requests map[string][]float64, led *ledger) error {
	var doc assignmentsDoc
	d, err := c.do(http.MethodGet, "/v1/assignments", nil, http.StatusOK, &doc)
	led.op("check", err)
	if err != nil {
		return nil // already counted
	}
	// A read of the whole assignment is one more sample of its route.
	requests["assignments"] = append(requests["assignments"], millis(d))
	ts, err := pop.taskSet()
	if err != nil {
		return err
	}
	if err := checkAssignments(&doc, pop.m, ts); err != nil {
		return err
	}

	var st struct {
		Devices     int `json:"devices"`
		DevicesGone int `json:"devices_gone"`
		Tasks       int `json:"tasks"`
		Shards      []struct {
			Tasks int  `json:"tasks"`
			Dirty bool `json:"dirty"`
		} `json:"shards"`
	}
	_, err = c.do(http.MethodGet, "/v1/state", nil, http.StatusOK, &st)
	led.op("check", err)
	if err != nil {
		return nil
	}
	if st.Tasks != ts.Len() || st.DevicesGone != 0 || len(st.Shards) != len(pop.stations) {
		return fmt.Errorf("state reports %d tasks, %d devices gone, %d shards; want %d, 0, %d",
			st.Tasks, st.DevicesGone, len(st.Shards), ts.Len(), len(pop.stations))
	}
	for i, sh := range st.Shards {
		if sh.Dirty || sh.Tasks != len(pop.stations[i].tasks) {
			return fmt.Errorf("station %d: state reports %d tasks (dirty %v), %d are live",
				i, sh.Tasks, sh.Dirty, len(pop.stations[i].tasks))
		}
	}

	m := scrape(c, led)
	if m == nil {
		return nil
	}
	for name, want := range map[string]int{
		"mecd.arrivals":      sent.arrivals,
		"mecd.departures":    sent.departures,
		"mecd.device_leaves": sent.leaves,
		"mecd.device_joins":  sent.joins,
	} {
		if got := m.Counters[name]; got != int64(want) {
			return fmt.Errorf("%s = %d, the client's accepted requests = %d", name, got, want)
		}
	}
	return nil
}
