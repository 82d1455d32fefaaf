package scenarioio

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dsmec/internal/compute"
	"dsmec/internal/core"
	"dsmec/internal/radio"
	"dsmec/internal/rng"
	"dsmec/internal/task"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func roundTrip(t *testing.T, sc *workload.Scenario) *workload.Scenario {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripHolistic(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(1), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)

	if got.System.NumDevices() != sc.System.NumDevices() ||
		got.System.NumStations() != sc.System.NumStations() {
		t.Fatal("topology dimensions changed")
	}
	for i := range sc.System.Devices {
		a, b := sc.System.Devices[i], got.System.Devices[i]
		if a.Station != b.Station || a.ResourceCap != b.ResourceCap {
			t.Fatalf("device %d structure changed", i)
		}
		if math.Abs(float64(a.Link.Upload-b.Link.Upload)) > 1e-6 ||
			math.Abs(float64(a.Proc.Frequency-b.Proc.Frequency)) > 1 {
			t.Fatalf("device %d parameters drifted", i)
		}
		if a.Proc.Kappa != b.Proc.Kappa {
			t.Fatalf("device %d kappa changed", i)
		}
	}
	if got.Tasks.Len() != sc.Tasks.Len() {
		t.Fatal("task count changed")
	}
	for i, a := range sc.Tasks.All() {
		b := got.Tasks.All()[i]
		if a.ID != b.ID || a.Kind != b.Kind || a.LocalSize != b.LocalSize ||
			a.ExternalSize != b.ExternalSize || a.ExternalSource != b.ExternalSource ||
			a.Resource != b.Resource || a.OpSize != b.OpSize {
			t.Fatalf("task %v changed: %+v vs %+v", a.ID, a, b)
		}
		if math.Abs(a.Deadline.Seconds()-b.Deadline.Seconds()) > 1e-12 {
			t.Fatalf("task %v deadline drifted", a.ID)
		}
	}
	if got.Placement != nil {
		t.Fatal("holistic scenario should decode without a placement")
	}
}

func TestRoundTripPreservesCosts(t *testing.T) {
	// The real invariant: every algorithm input (t_ijl, E_ijl) survives
	// the round trip, so assignments and metrics are identical.
	sc, err := workload.GenerateHolistic(rng.NewSource(2), workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)

	resA, err := core.LPHTA(sc.Model, sc.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := core.LPHTA(got.Model, got.Tasks, nil)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := core.Evaluate(sc.Model, sc.Tasks, resA.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := core.Evaluate(got.Model, got.Tasks, resB.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(mA.TotalEnergy-mB.TotalEnergy)) > 1e-9 {
		t.Errorf("energy drifted across round trip: %v vs %v", mA.TotalEnergy, mB.TotalEnergy)
	}
	if mA.Unsatisfied != mB.Unsatisfied {
		t.Errorf("unsatisfied count drifted: %d vs %d", mA.Unsatisfied, mB.Unsatisfied)
	}
}

func TestRoundTripDivisible(t *testing.T) {
	sc, err := workload.GenerateDivisible(rng.NewSource(3), workload.Params{
		NumDevices: 10, NumStations: 2, NumTasks: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)
	if got.Placement == nil {
		t.Fatal("placement lost")
	}
	if got.Placement.NumBlocks() != sc.Placement.NumBlocks() ||
		got.Placement.BlockSize() != sc.Placement.BlockSize() {
		t.Fatal("placement dimensions changed")
	}
	for i := 0; i < sc.Placement.NumDevices(); i++ {
		a, err := sc.Placement.Holding(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Placement.Holding(i)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("device %d holding changed", i)
		}
	}
	for i, a := range sc.Tasks.All() {
		b := got.Tasks.All()[i]
		if !a.LocalBlocks.Equal(b.LocalBlocks) || !a.ExternalBlocks.Equal(b.ExternalBlocks) {
			t.Fatalf("task %v block sets changed", a.ID)
		}
	}

	// The DTA pipeline must produce identical results on both.
	dtaA, err := core.DTA(sc.Model, sc.Tasks, sc.Placement, core.DTAOptions{Goal: core.GoalWorkload})
	if err != nil {
		t.Fatal(err)
	}
	dtaB, err := core.DTA(got.Model, got.Tasks, got.Placement, core.DTAOptions{Goal: core.GoalWorkload})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(dtaA.Metrics.TotalEnergy-dtaB.Metrics.TotalEnergy)) > 1e-9 {
		t.Errorf("DTA energy drifted: %v vs %v", dtaA.Metrics.TotalEnergy, dtaB.Metrics.TotalEnergy)
	}
}

func TestRoundTripConstantResultModel(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(4), workload.Params{
		NumDevices: 4, NumStations: 1, NumTasks: 8,
		ResultModel: compute.ConstantResult{Size: 9 * units.Kilobyte},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, sc)
	if size := got.Model.ResultSize(12345 * units.Kilobyte); size != 9*units.Kilobyte {
		t.Errorf("constant result model lost: got %v", size)
	}
}

// enumDoc is a minimal valid document with one device and one task
// whose tech and kind spellings the caller chooses; kind is the whole
// "kind" member with its trailing comma, or empty to leave it out.
func enumDoc(tech, kind string) string {
	return `{"version":1,"system":{"devices":[{"station":0,"upload_mbps":1,"download_mbps":1,"tx_power_w":1,"rx_power_w":1,"tech":"` + tech + `","freq_ghz":1,"kappa":0,"resource_cap":1}],"stations":[{"freq_ghz":4,"resource_cap":1}],"cloud_ghz":2.4,"wires":{"station_latency_s":0,"station_bandwidth_bps":1,"station_joule_per_byte":0,"cloud_latency_s":0,"cloud_bandwidth_bps":1,"cloud_joule_per_byte":0}},"cost_model":{"cycles_per_byte":330,"result_kind":"proportional","result_value":0.2},"tasks":[{"user":0,"index":0,` + kind + `"op_bytes":1000,"local_bytes":0,"external_bytes":0,"resource":1,"deadline_s":1}]}`
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		body string
		// want, when set, is a substring the error must contain.
		want string
	}{
		{"empty", "", ""},
		{"not json", "nope", ""},
		{"wrong version", `{"version": 99}`, ""},
		{"unknown field", `{"version": 1, "bogus": true}`, ""},
		{"bad result kind", `{"version":1,"system":{"devices":[{"station":0,"upload_mbps":1,"download_mbps":1,"tx_power_w":1,"rx_power_w":1,"tech":"4G","freq_ghz":1,"kappa":0,"resource_cap":1}],"stations":[{"freq_ghz":4,"resource_cap":1}],"cloud_ghz":2.4,"wires":{"station_latency_s":0,"station_bandwidth_bps":0,"station_joule_per_byte":0,"cloud_latency_s":0,"cloud_bandwidth_bps":0,"cloud_joule_per_byte":0}},"cost_model":{"cycles_per_byte":330,"result_kind":"cubic","result_value":1},"tasks":[]}`, ""},
		{"invalid system", `{"version":1,"system":{"devices":[],"stations":[],"cloud_ghz":0,"wires":{"station_latency_s":0,"station_bandwidth_bps":0,"station_joule_per_byte":0,"cloud_latency_s":0,"cloud_bandwidth_bps":0,"cloud_joule_per_byte":0}},"cost_model":{"cycles_per_byte":330,"result_kind":"proportional","result_value":0.2},"tasks":[]}`, ""},
		{"unknown kind", enumDoc("4G", `"kind":"divisble",`), `task 0: unknown kind "divisble"`},
		{"unknown tech", enumDoc("5G", ""), `device 0: unknown tech "5G"`},
		{"empty tech", enumDoc("", ""), `device 0: unknown tech ""`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(strings.NewReader(tt.body))
			if err == nil {
				t.Fatal("Decode should fail")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("Decode error %q does not contain %q", err, tt.want)
			}
		})
	}
}

// TestDecodeEnumSpellings: every tech the encoder writes decodes back to
// itself, and an absent or empty kind means holistic.
func TestDecodeEnumSpellings(t *testing.T) {
	for _, tc := range []struct {
		tech, kind string
		wantTech   radio.Tech
		wantKind   task.Kind
	}{
		{"4G", "", radio.Tech4G, task.Holistic},
		{"Wi-Fi", `"kind":"",`, radio.TechWiFi, task.Holistic},
		{"custom", `"kind":"holistic",`, radio.TechCustom, task.Holistic},
		{"4G", `"kind":"divisible",`, radio.Tech4G, task.Divisible},
	} {
		sc, err := Decode(strings.NewReader(enumDoc(tc.tech, tc.kind)))
		if err != nil {
			t.Fatalf("tech %q kind %q: %v", tc.tech, tc.kind, err)
		}
		if got := sc.System.Devices[0].Link.Tech; got != tc.wantTech {
			t.Errorf("tech %q decoded as %v", tc.tech, got)
		}
		if got := sc.Tasks.At(0).Kind; got != tc.wantKind {
			t.Errorf("kind %q decoded as %v", tc.kind, got)
		}
	}
}

func TestEncodeNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Error("Encode(nil) should fail")
	}
	if err := Encode(&buf, &workload.Scenario{}); err == nil {
		t.Error("Encode of empty scenario should fail")
	}
}

func TestDecodePlacementMismatch(t *testing.T) {
	sc, err := workload.GenerateDivisible(rng.NewSource(5), workload.Params{
		NumDevices: 4, NumStations: 1, NumTasks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	// Corrupt: drop one holding row.
	body := mutateDocument(t, buf.Bytes(), func(doc map[string]any) {
		pl := doc["placement"].(map[string]any)
		rows := pl["holdings"].([]any)
		pl["holdings"] = rows[:len(rows)-1]
	})
	if _, err := Decode(strings.NewReader(body)); err == nil {
		t.Error("holding/device mismatch should fail")
	}
}

// mutateDocument decodes an encoded scenario into generic JSON values,
// applies mutate and re-encodes it, for tests that corrupt documents
// between Encode and Decode. Numbers stay json.Number, so untouched
// values keep their exact text.
func mutateDocument(t *testing.T, data []byte, mutate func(doc map[string]any)) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	mutate(doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
