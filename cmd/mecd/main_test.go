package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/obs"
	"dsmec/internal/rng"
	"dsmec/internal/scenarioio"
	"dsmec/internal/task"
	"dsmec/internal/workload"
)

func testScenario(t *testing.T, seed int64, devices, stations, tasks int) *workload.Scenario {
	t.Helper()
	sc, err := workload.GenerateHolistic(rng.NewSource(seed), workload.Params{
		NumDevices: devices, NumStations: stations, NumTasks: tasks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func testServer(t *testing.T, sc *workload.Scenario, workers int) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	logger, err := obs.NewLogger(io.Discard, "off", "text")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(sc.Model, reg, obs.NewManifest("mecd", nil), logger, workers)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, reg
}

// postTask streams one task through POST /v1/tasks and asserts acceptance.
func postTask(t *testing.T, base string, tk *task.Task) {
	t.Helper()
	body, err := json.Marshal(scenarioio.TaskToDoc(tk))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/tasks %v: status %d: %s", tk.ID, resp.StatusCode, b)
	}
}

func doReq(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getBody fetches url and returns the raw bytes (status must be 200).
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return b
}

// assignmentsMatchBatch fetches /v1/assignments and requires placement
// parity with a batch LP-HTA run over the given task set.
func assignmentsMatchBatch(t *testing.T, base string, sc *workload.Scenario, ts *task.Set) {
	t.Helper()
	batch, err := core.LPHTA(sc.Model, ts, &core.LPHTAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var doc assignmentsDoc
	if err := json.Unmarshal(getBody(t, base+"/v1/assignments"), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Assignments) != ts.Len() {
		t.Fatalf("assignments rows = %d, want %d", len(doc.Assignments), ts.Len())
	}
	for _, row := range doc.Assignments {
		id := task.ID{User: row.User, Index: row.Index}
		want := batch.Assignment.Of(id).String()
		if row.Subsystem != want {
			t.Errorf("task %v: daemon placed %s, batch placed %s", id, row.Subsystem, want)
		}
	}
}

// TestStreamedArrivalsMatchBatch is the tentpole e2e: tasks streamed one
// by one through the HTTP API must be assigned exactly as a batch LP-HTA
// run over the same static population.
func TestStreamedArrivalsMatchBatch(t *testing.T) {
	sc := testScenario(t, 5, 20, 4, 80)
	hs, reg := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}
	assignmentsMatchBatch(t, hs.URL, sc, sc.Tasks)
	if got := reg.Counter("mecd.arrivals").Value(); got != int64(sc.Tasks.Len()) {
		t.Errorf("mecd.arrivals = %d, want %d", got, sc.Tasks.Len())
	}

	// A second read re-solves nothing: every shard is clean.
	solves := reg.Counter("mecd.solves").Value()
	_ = getBody(t, hs.URL+"/v1/assignments")
	if got := reg.Counter("mecd.solves").Value(); got != solves {
		t.Errorf("clean re-read triggered %d extra solves", got-solves)
	}
}

// TestResponseBytesIndependentOfParallelism pins the byte-identical
// discipline: the /v1/assignments and /v1/solve bodies must not depend on
// the dirty-shard worker count.
func TestResponseBytesIndependentOfParallelism(t *testing.T) {
	sc := testScenario(t, 6, 24, 6, 90)
	var assignments, solve []byte
	for _, workers := range []int{1, 8} {
		hs, _ := testServer(t, sc, workers)
		for i := 0; i < sc.Tasks.Len(); i++ {
			postTask(t, hs.URL, sc.Tasks.At(i))
		}
		got := getBody(t, hs.URL+"/v1/assignments")
		resp, err := http.Post(hs.URL+"/v1/solve", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		sbody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if assignments == nil {
			assignments, solve = got, sbody
			continue
		}
		if !bytes.Equal(got, assignments) {
			t.Errorf("workers=%d: /v1/assignments bytes differ from workers=1", workers)
		}
		if !bytes.Equal(sbody, solve) {
			t.Errorf("workers=%d: /v1/solve bytes differ from workers=1", workers)
		}
	}
}

// TestDeparturesMatchBatch: after removing a slice of tasks over the API,
// the remaining assignment must match a batch run over the survivors, and
// only the touched shards may re-solve.
func TestDeparturesMatchBatch(t *testing.T) {
	sc := testScenario(t, 7, 18, 3, 60)
	hs, reg := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}
	_ = getBody(t, hs.URL+"/v1/assignments") // solve round 1: all cold

	// Remove every 7th task through the API; build the surviving set.
	survivors := &task.Set{}
	for i := 0; i < sc.Tasks.Len(); i++ {
		tk := sc.Tasks.At(i)
		if i%7 == 0 {
			resp := doReq(t, http.MethodDelete,
				fmt.Sprintf("%s/v1/tasks/%d/%d", hs.URL, tk.ID.User, tk.ID.Index))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE task %v: status %d", tk.ID, resp.StatusCode)
			}
			resp.Body.Close()
			continue
		}
		cp := *tk
		if err := survivors.Add(&cp); err != nil {
			t.Fatal(err)
		}
	}
	assignmentsMatchBatch(t, hs.URL, sc, survivors)
	if reg.Counter("mecd.departures").Value() == 0 {
		t.Error("mecd.departures never incremented")
	}

	// Unknown task: 404 with a JSON error body.
	resp := doReq(t, http.MethodDelete, hs.URL+"/v1/tasks/0/999999")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown task: status %d, body %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "error") {
		t.Errorf("DELETE unknown task: body %s lacks error field", b)
	}
}

// TestDeviceLeaveAndRejoin: a leaving device takes its tasks with it and
// blocks new arrivals with 410 until it rejoins.
func TestDeviceLeaveAndRejoin(t *testing.T) {
	sc := testScenario(t, 8, 12, 3, 40)
	hs, reg := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}

	// Pick the device raising task 0 and remove it.
	gone := sc.Tasks.At(0).ID.User
	resp := doReq(t, http.MethodDelete, fmt.Sprintf("%s/v1/devices/%d", hs.URL, gone))
	var leave struct {
		Status  string `json:"status"`
		Removed int    `json:"removed_tasks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&leave); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || leave.Status != "left" || leave.Removed == 0 {
		t.Fatalf("device leave: status %d, doc %+v", resp.StatusCode, leave)
	}

	// Its tasks are gone from the assignment; the rest match a batch run
	// over the surviving population.
	survivors := &task.Set{}
	for i := 0; i < sc.Tasks.Len(); i++ {
		tk := sc.Tasks.At(i)
		if tk.ID.User == gone {
			continue
		}
		cp := *tk
		if err := survivors.Add(&cp); err != nil {
			t.Fatal(err)
		}
	}
	assignmentsMatchBatch(t, hs.URL, sc, survivors)

	// New arrivals from the departed device are refused with 410.
	probe := *sc.Tasks.At(0)
	probe.ID.Index = 1 << 20
	body, _ := json.Marshal(scenarioio.TaskToDoc(&probe))
	post, err := http.Post(hs.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusGone {
		t.Errorf("arrival from departed device: status %d, want %d", post.StatusCode, http.StatusGone)
	}

	// Rejoin and retry: accepted.
	join, err := http.Post(hs.URL+"/v1/devices", "application/json",
		strings.NewReader(fmt.Sprintf(`{"id":%d}`, gone)))
	if err != nil {
		t.Fatal(err)
	}
	join.Body.Close()
	if join.StatusCode != http.StatusOK {
		t.Fatalf("device rejoin: status %d", join.StatusCode)
	}
	postTask(t, hs.URL, &probe)
	if reg.Counter("mecd.device_leaves").Value() != 1 || reg.Counter("mecd.device_joins").Value() != 1 {
		t.Errorf("device churn counters = %d/%d, want 1/1",
			reg.Counter("mecd.device_leaves").Value(), reg.Counter("mecd.device_joins").Value())
	}
}

// TestStateAndHealth covers the read-only endpoints.
func TestStateAndHealth(t *testing.T) {
	sc := testScenario(t, 9, 10, 2, 20)
	hs, _ := testServer(t, sc, 0)
	for i := 0; i < sc.Tasks.Len(); i++ {
		postTask(t, hs.URL, sc.Tasks.At(i))
	}
	if !bytes.Contains(getBody(t, hs.URL+"/healthz"), []byte(`"ok":true`)) {
		t.Error("healthz body lacks ok:true")
	}
	var st stateDoc
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/state"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tasks != sc.Tasks.Len() || st.Stations != 2 || st.Devices != 10 {
		t.Errorf("state = %+v, want %d tasks over 2 stations, 10 devices", st, sc.Tasks.Len())
	}
	// No shard holds a basis before its first solve, and every shard
	// holds one after an optimal solve.
	for _, sh := range st.Shards {
		if sh.Warm {
			t.Errorf("station %d warm before any solve", sh.Station)
		}
	}
	resp, err := http.Post(hs.URL+"/v1/solve", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/solve: status %d", resp.StatusCode)
	}
	var after stateDoc
	if err := json.Unmarshal(getBody(t, hs.URL+"/v1/state"), &after); err != nil {
		t.Fatal(err)
	}
	for _, sh := range after.Shards {
		if sh.Dirty {
			t.Errorf("station %d still dirty after a solve", sh.Station)
		}
		if !sh.Warm {
			t.Errorf("station %d not warm after an optimal solve", sh.Station)
		}
	}
}

// TestBadRequests covers the input-validation edges.
func TestBadRequests(t *testing.T) {
	sc := testScenario(t, 10, 8, 2, 4)
	hs, _ := testServer(t, sc, 0)
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{`, http.StatusBadRequest},
		{"unknown field", `{"user":0,"index":1,"op_bytes":1000,"resource":1,"deadline_s":1,"bogus":3}`, http.StatusBadRequest},
		{"invalid task", `{"user":0,"index":1,"op_bytes":-5,"resource":1,"deadline_s":1}`, http.StatusBadRequest},
		{"unknown device", `{"user":999,"index":1,"op_bytes":1000,"resource":1,"deadline_s":1}`, http.StatusNotFound},
		{"unknown source", `{"user":0,"index":1,"op_bytes":1000,"external_bytes":500,"external_source":999,"resource":1,"deadline_s":1}`, http.StatusBadRequest},
		{"divisible kind", `{"user":0,"index":1,"kind":"divisible","op_bytes":1000,"resource":1,"deadline_s":1}`, http.StatusBadRequest},
		{"unknown kind", `{"user":0,"index":1,"kind":"divisble","op_bytes":1000,"resource":1,"deadline_s":1}`, http.StatusBadRequest},
		// The benchmark client's body: no kind, which means holistic.
		{"no kind", `{"user":0,"index":1048576,"op_bytes":1000,"local_bytes":0,"external_bytes":0,"resource":1,"deadline_s":1}`, http.StatusAccepted},
	}
	for _, tc := range cases {
		resp, err := http.Post(hs.URL+"/v1/tasks", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// A task element cut verbatim from a scenario document is accepted.
	var doc bytes.Buffer
	if err := scenarioio.Encode(&doc, sc); err != nil {
		t.Fatal(err)
	}
	var elems struct {
		Tasks []json.RawMessage `json:"tasks"`
	}
	if err := json.Unmarshal(doc.Bytes(), &elems); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(elems.Tasks[1], []byte(`"kind": "holistic"`)) {
		t.Fatalf("scenario task element lacks its kind: %s", elems.Tasks[1])
	}
	resp, err := http.Post(hs.URL+"/v1/tasks", "application/json", bytes.NewReader(elems.Tasks[1]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("scenario task element: status %d, want %d", resp.StatusCode, http.StatusAccepted)
	}
	// Bodies over the cap are refused whole, on both document routes,
	// even when a valid document follows the padding.
	padding := strings.Repeat(" ", maxBodyBytes)
	for _, route := range []struct{ path, doc string }{
		{"/v1/tasks", `{"user":0,"index":1,"op_bytes":1000,"resource":1,"deadline_s":1}`},
		{"/v1/devices", `{"id":0}`},
	} {
		resp, err := http.Post(hs.URL+route.path, "application/json", strings.NewReader(padding+route.doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s body: status %d, want %d", route.path, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
	}
	// Duplicate arrival conflicts.
	postTask(t, hs.URL, sc.Tasks.At(0))
	body, _ := json.Marshal(scenarioio.TaskToDoc(sc.Tasks.At(0)))
	resp, err = http.Post(hs.URL+"/v1/tasks", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate arrival: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}

// TestRunSelfcheck drives the whole binary path `mecd -selfcheck` —
// generator boot, real listener, arrival/assign/departure cycle, metrics
// probe — and is the same sequence `make verify` runs.
func TestRunSelfcheck(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-selfcheck", "-preload", "30", "-log-level", "off"}, &out); err != nil {
		t.Fatalf("mecd -selfcheck: %v", err)
	}
	if !strings.Contains(out.String(), "selfcheck ok") {
		t.Errorf("selfcheck output %q lacks ok marker", out.String())
	}
}
