package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/obs"
	"dsmec/internal/pool"
	"dsmec/internal/scenarioio"
	"dsmec/internal/task"
)

// server is the online assignment service: per-station shards of warm
// cluster state behind HTTP. Arrivals and departures only mutate their
// station's shard and mark it dirty; /v1/solve and /v1/assignments re-solve
// exactly the dirty shards (warm-starting each cluster LP from its previous
// optimal basis) and merge results in station order, so responses are
// byte-identical at any solver parallelism.
type server struct {
	mux     *http.ServeMux
	m       *costmodel.Model
	logger  *obs.Logger
	reg     *obs.Registry
	workers int

	// topo guards the device presence flags; shard mutexes guard
	// everything per-station.
	topo       sync.RWMutex
	deviceGone []bool

	shards []*shard
}

// shard is one station's mutable state.
type shard struct {
	mu    sync.Mutex
	cs    *core.ClusterState
	dirty bool
	res   *core.ClusterResult // last solve; valid when !dirty
}

func newServer(m *costmodel.Model, reg *obs.Registry, manifest *obs.Manifest, logger *obs.Logger, workers int) (*server, error) {
	sys := m.System()
	s := &server{
		m:          m,
		logger:     logger,
		reg:        reg,
		workers:    workers,
		deviceGone: make([]bool, sys.NumDevices()),
		shards:     make([]*shard, sys.NumStations()),
	}
	if s.workers <= 0 {
		s.workers = len(s.shards)
	}
	opts := &core.LPHTAOptions{Obs: obs.Instruments{Metrics: reg, Log: logger}}
	for st := range s.shards {
		cs, err := core.NewClusterState(m, st, opts)
		if err != nil {
			return nil, err
		}
		s.shards[st] = &shard{cs: cs, dirty: true}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("POST /v1/tasks", s.handleTaskArrival)
	mux.HandleFunc("DELETE /v1/tasks/{user}/{index}", s.handleTaskDeparture)
	mux.HandleFunc("POST /v1/devices", s.handleDeviceJoin)
	mux.HandleFunc("DELETE /v1/devices/{id}", s.handleDeviceLeave)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/assignments", s.handleAssignments)
	// Observability surface: /metrics, /metrics.json, /manifest,
	// /debug/pprof, and the index page.
	mux.Handle("/", obs.Handler(reg, manifest))
	s.mux = mux
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// preload streams a task set into the shards before serving, in arena
// order — the same order the batch planner sees, so a subsequent
// /v1/assignments matches batch LP-HTA placement for placement.
func (s *server) preload(ts *task.Set) error {
	sys := s.m.System()
	for i := 0; i < ts.Len(); i++ {
		t := ts.At(i)
		st, err := sys.StationOf(t.ID.User)
		if err != nil {
			return err
		}
		sh := s.shards[st]
		sh.mu.Lock()
		err = sh.cs.AddTask(*t)
		sh.dirty = true
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// writeJSON renders v with a stable field order (struct-driven) and a
// trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorDoc is every non-2xx body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a request body. Task and device documents are a few
// hundred bytes; the cap keeps an oversized body from being buffered.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's JSON body into v, rejecting unknown fields and
// bodies over maxBodyBytes. On failure it writes the error response (413
// for an oversized body, 400 otherwise) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%s document exceeds %d bytes", what, maxBodyBytes)
	default:
		writeError(w, http.StatusBadRequest, "bad %s document: %v", what, err)
	}
	return false
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// stateDoc is the GET /v1/state body.
type stateDoc struct {
	Stations    int             `json:"stations"`
	Devices     int             `json:"devices"`
	DevicesGone int             `json:"devices_gone"`
	Tasks       int             `json:"tasks"`
	Shards      []shardStateDoc `json:"shards"`
}

type shardStateDoc struct {
	Station int  `json:"station"`
	Tasks   int  `json:"tasks"`
	Dirty   bool `json:"dirty"`
	Warm    bool `json:"warm"`
}

func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	doc := stateDoc{Stations: len(s.shards), Devices: len(s.deviceGone)}
	s.topo.RLock()
	for _, gone := range s.deviceGone {
		if gone {
			doc.DevicesGone++
		}
	}
	s.topo.RUnlock()
	for st, sh := range s.shards {
		sh.mu.Lock()
		d := shardStateDoc{Station: st, Tasks: sh.cs.Len(), Dirty: sh.dirty, Warm: sh.cs.Warm()}
		sh.mu.Unlock()
		doc.Tasks += d.Tasks
		doc.Shards = append(doc.Shards, d)
	}
	writeJSON(w, http.StatusOK, doc)
}

// stationOf resolves a device's station, distinguishing "unknown device"
// from "departed device". It returns -1 and writes the error response when
// the task cannot be admitted.
func (s *server) stationOf(w http.ResponseWriter, device int) int {
	st, err := s.m.System().StationOf(device)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d", device)
		return -1
	}
	s.topo.RLock()
	gone := s.deviceGone[device]
	s.topo.RUnlock()
	if gone {
		writeError(w, http.StatusGone, "device %d has left", device)
		return -1
	}
	return st
}

// arrivalDoc is the POST /v1/tasks success body.
type arrivalDoc struct {
	Status  string `json:"status"`
	Station int    `json:"station"`
}

func (s *server) handleTaskArrival(w http.ResponseWriter, r *http.Request) {
	// The body is a scenario document's task element, so a task can be
	// lifted from a scenario file verbatim.
	var td scenarioio.TaskDoc
	if !decodeBody(w, r, "task", &td) {
		return
	}
	t, err := scenarioio.TaskFromDoc(&td)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad task document: %v", err)
		return
	}
	if t.Kind != task.Holistic {
		writeError(w, http.StatusBadRequest, "task %v: kind %v, want holistic", t.ID, t.Kind)
		return
	}
	if err := t.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st := s.stationOf(w, t.ID.User)
	if st < 0 {
		return
	}
	if t.HasExternal() {
		if _, err := s.m.System().StationOf(t.ExternalSource); err != nil {
			writeError(w, http.StatusBadRequest, "unknown external source %d", t.ExternalSource)
			return
		}
	}
	sh := s.shards[st]
	sh.mu.Lock()
	err = sh.cs.AddTask(*t)
	if err == nil {
		sh.dirty = true
	}
	sh.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.reg.Counter("mecd.arrivals").Inc()
	writeJSON(w, http.StatusAccepted, arrivalDoc{Status: "accepted", Station: st})
}

func pathInt(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	v, err := strconv.Atoi(r.PathValue(name))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad %s %q", name, r.PathValue(name))
		return 0, false
	}
	return v, true
}

func (s *server) handleTaskDeparture(w http.ResponseWriter, r *http.Request) {
	user, ok := pathInt(w, r, "user")
	if !ok {
		return
	}
	index, ok := pathInt(w, r, "index")
	if !ok {
		return
	}
	st, err := s.m.System().StationOf(user)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d", user)
		return
	}
	id := task.ID{User: user, Index: index}
	sh := s.shards[st]
	sh.mu.Lock()
	err = sh.cs.RemoveTask(id)
	if err == nil {
		sh.dirty = true
	}
	sh.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	s.reg.Counter("mecd.departures").Inc()
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"removed"})
}

// deviceDoc is the POST /v1/devices body (re-join of a provisioned
// device). The topology itself is fixed at boot: joins and leaves toggle a
// provisioned device's presence, they do not grow the system.
type deviceDoc struct {
	ID int `json:"id"`
}

func (s *server) handleDeviceJoin(w http.ResponseWriter, r *http.Request) {
	var dd deviceDoc
	if !decodeBody(w, r, "device", &dd) {
		return
	}
	if _, err := s.m.System().StationOf(dd.ID); err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d (the topology is fixed at boot)", dd.ID)
		return
	}
	s.topo.Lock()
	was := s.deviceGone[dd.ID]
	s.deviceGone[dd.ID] = false
	s.topo.Unlock()
	if was {
		s.reg.Counter("mecd.device_joins").Inc()
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		ID     int    `json:"id"`
	}{"present", dd.ID})
}

func (s *server) handleDeviceLeave(w http.ResponseWriter, r *http.Request) {
	id, ok := pathInt(w, r, "id")
	if !ok {
		return
	}
	st, err := s.m.System().StationOf(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown device %d", id)
		return
	}
	s.topo.Lock()
	was := s.deviceGone[id]
	s.deviceGone[id] = true
	s.topo.Unlock()

	// Cancel everything the device raised; its in-cluster tasks cannot
	// run anywhere once the raising device is gone.
	removed := 0
	sh := s.shards[st]
	sh.mu.Lock()
	for _, tid := range sh.cs.TaskIDs() {
		if tid.User != id {
			continue
		}
		if err := sh.cs.RemoveTask(tid); err == nil {
			removed++
		}
	}
	if removed > 0 {
		sh.dirty = true
	}
	sh.mu.Unlock()
	if !was {
		s.reg.Counter("mecd.device_leaves").Inc()
	}
	writeJSON(w, http.StatusOK, struct {
		Status  string `json:"status"`
		ID      int    `json:"id"`
		Removed int    `json:"removed_tasks"`
	}{"left", id, removed})
}

// solveDirty re-solves every dirty shard over a bounded worker pool and
// returns the shards' errors joined in station order. Shard results land
// in shard.res under the shard mutex; merge order is always station order,
// so downstream output does not depend on the worker count.
func (s *server) solveDirty() error {
	timer := obs.StartTimer()
	var pending []*shard
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.dirty {
			pending = append(pending, sh)
		} else {
			sh.mu.Unlock()
		}
	}
	// All dirty shards are now locked: arrivals wait while we solve.
	err := pool.ForEach(len(pending), s.workers, func(i int) error {
		return pending[i].solveLocked()
	})
	for _, sh := range pending {
		sh.mu.Unlock()
	}
	if len(pending) > 0 {
		s.reg.Counter("mecd.solves").Inc()
		s.reg.Counter("mecd.solved_shards").Add(int64(len(pending)))
		s.reg.Histogram("mecd.solve_seconds", obs.TimeBuckets).Observe(timer.Seconds())
	}
	return err
}

func (sh *shard) solveLocked() error {
	res, err := sh.cs.Solve()
	if err != nil {
		return err
	}
	sh.res = res
	sh.dirty = false
	return nil
}

// solveDoc is the POST /v1/solve body: the merged Theorem 2 quantities
// plus warm-start accounting, accumulated in station order.
type solveDoc struct {
	Tasks           int     `json:"tasks"`
	Placed          int     `json:"placed"`
	Cancelled       int     `json:"cancelled"`
	LPObjectiveJ    float64 `json:"lp_objective_joules"`
	RoundedEnergyJ  float64 `json:"rounded_energy_joules"`
	DeltaJ          float64 `json:"delta_joules"`
	FractionalTasks int     `json:"fractional_tasks"`
	LPIterations    int     `json:"lp_iterations"`
	PreCancelled    int     `json:"pre_cancelled"`
	WarmShards      int     `json:"warm_shards"`
}

func (s *server) merged() solveDoc {
	var doc solveDoc
	for _, sh := range s.shards {
		sh.mu.Lock()
		res := sh.res
		sh.mu.Unlock()
		if res == nil {
			continue
		}
		doc.Tasks += len(res.Placements)
		for _, p := range res.Placements {
			if p.Level == costmodel.SubsystemNone {
				doc.Cancelled++
			} else {
				doc.Placed++
			}
		}
		doc.LPObjectiveJ += res.LPObjective.Joules()
		doc.RoundedEnergyJ += res.RoundedEnergy.Joules()
		doc.DeltaJ += res.Delta.Joules()
		doc.FractionalTasks += res.FractionalTasks
		doc.LPIterations += res.LPIterations
		doc.PreCancelled += res.PreCancelled
		if res.Warm {
			doc.WarmShards++
		}
	}
	return doc
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if err := s.solveDirty(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.merged())
}

// assignmentDoc is one row of GET /v1/assignments.
type assignmentDoc struct {
	User      int    `json:"user"`
	Index     int    `json:"index"`
	Subsystem string `json:"subsystem"`
}

// assignmentsDoc is the GET /v1/assignments body. Assignments are sorted
// by task ID, so the bytes are independent of shard solve order and
// worker count.
type assignmentsDoc struct {
	Assignments []assignmentDoc `json:"assignments"`
	Summary     solveDoc        `json:"summary"`
}

func (s *server) handleAssignments(w http.ResponseWriter, r *http.Request) {
	if err := s.solveDirty(); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	doc := assignmentsDoc{Assignments: []assignmentDoc{}, Summary: s.merged()}
	for _, sh := range s.shards {
		sh.mu.Lock()
		res := sh.res
		sh.mu.Unlock()
		if res == nil {
			continue
		}
		for _, p := range res.Placements {
			doc.Assignments = append(doc.Assignments, assignmentDoc{
				User: p.ID.User, Index: p.ID.Index, Subsystem: p.Level.String(),
			})
		}
	}
	sort.Slice(doc.Assignments, func(i, j int) bool {
		a, b := doc.Assignments[i], doc.Assignments[j]
		if a.User != b.User {
			return a.User < b.User
		}
		return a.Index < b.Index
	})
	writeJSON(w, http.StatusOK, doc)
}
