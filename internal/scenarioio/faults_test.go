package scenarioio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dsmec/internal/rng"
	"dsmec/internal/sim"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

func faultScenario(t *testing.T) *workload.Scenario {
	t.Helper()
	sc, err := workload.GenerateHolistic(rng.NewSource(6), workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestFaultPlanRoundTrip(t *testing.T) {
	sc := faultScenario(t)
	fp := &sim.FaultPlan{
		StationOutages:   []sim.StationOutage{{Station: 1, At: 0.5, Repair: 2}},
		DeviceDepartures: []sim.DeviceDeparture{{Device: 3, At: 1.25}},
		LinkDegradations: []sim.LinkDegradation{
			{Station: 0, Link: sim.LinkWire, At: 0, Duration: 3, Slowdown: 2.5},
			{Station: 1, Link: sim.LinkWAN, At: 1, Duration: 1, Slowdown: 4},
		},
		TransferTimeout: 2 * units.Second,
		Recovery:        sim.RecoveryPolicy{MaxRetries: 5, BackoffBase: 0.25, BackoffCap: 4, NoReassign: true},
	}

	var buf bytes.Buffer
	if err := EncodeWithFaults(&buf, sc, fp); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	got, gotPlan, err := DecodeWithFaults(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlan, fp) {
		t.Errorf("plan changed across round trip:\n got %+v\nwant %+v", gotPlan, fp)
	}
	if got.Tasks.Len() != sc.Tasks.Len() {
		t.Error("scenario damaged by fault section")
	}

	// Encode the decoded pair again: the document must be byte-stable.
	var buf2 bytes.Buffer
	if err := EncodeWithFaults(&buf2, got, gotPlan); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Error("document not byte-stable across encode/decode/encode")
	}
}

func TestGeneratedFaultPlanRoundTrip(t *testing.T) {
	sc := faultScenario(t)
	fp := sim.GenerateFaultPlan(rng.NewSource(9), sc.System, sim.DefaultFaultParams())
	var buf bytes.Buffer
	if err := EncodeWithFaults(&buf, sc, fp); err != nil {
		t.Fatal(err)
	}
	_, gotPlan, err := DecodeWithFaults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlan, fp) {
		t.Error("generated plan changed across round trip")
	}
}

func TestDecodeWithFaultsOnPlainDocument(t *testing.T) {
	// A document without a faults section decodes to a nil plan, and a
	// faultless EncodeWithFaults emits exactly what Encode does.
	sc := faultScenario(t)
	var plain, withNil bytes.Buffer
	if err := Encode(&plain, sc); err != nil {
		t.Fatal(err)
	}
	if err := EncodeWithFaults(&withNil, sc, nil); err != nil {
		t.Fatal(err)
	}
	if plain.String() != withNil.String() {
		t.Error("EncodeWithFaults(nil) should match Encode byte for byte")
	}
	_, fp, err := DecodeWithFaults(&plain)
	if err != nil {
		t.Fatal(err)
	}
	if fp != nil {
		t.Errorf("plain document decoded a plan: %+v", fp)
	}
}

func TestPlainDecodeIgnoresFaults(t *testing.T) {
	// The faults section is optional payload: plain Decode still succeeds
	// and returns the scenario.
	sc := faultScenario(t)
	fp := &sim.FaultPlan{StationOutages: []sim.StationOutage{{Station: 0, At: 1, Repair: 1}}}
	var buf bytes.Buffer
	if err := EncodeWithFaults(&buf, sc, fp); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tasks.Len() != sc.Tasks.Len() {
		t.Error("scenario damaged")
	}
}

func TestDecodeWithFaultsErrors(t *testing.T) {
	sc := faultScenario(t)

	encodeWith := func(t *testing.T, mutate func(faults map[string]any)) string {
		t.Helper()
		var buf bytes.Buffer
		fp := &sim.FaultPlan{StationOutages: []sim.StationOutage{{Station: 0, At: 1, Repair: 1}}}
		if err := EncodeWithFaults(&buf, sc, fp); err != nil {
			t.Fatal(err)
		}
		return mutateDocument(t, buf.Bytes(), func(doc map[string]any) {
			mutate(doc["faults"].(map[string]any))
		})
	}
	outage := func(f map[string]any) map[string]any {
		return f["station_outages"].([]any)[0].(map[string]any)
	}

	cases := []struct {
		name   string
		mutate func(map[string]any)
	}{
		{"unknown link", func(f map[string]any) {
			f["link_degradations"] = []degradationDoc{{Station: 0, Link: "carrier-pigeon", AtS: 0, DurationS: 1, Slowdown: 2}}
		}},
		{"station out of range", func(f map[string]any) {
			outage(f)["station"] = 99
		}},
		{"device out of range", func(f map[string]any) {
			f["device_departures"] = []departureDoc{{Device: -2, AtS: 0}}
		}},
		{"negative repair", func(f map[string]any) {
			outage(f)["repair_s"] = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := encodeWith(t, tc.mutate)
			if _, _, err := DecodeWithFaults(strings.NewReader(body)); err == nil {
				t.Error("DecodeWithFaults should fail")
			}
		})
	}

	if _, _, err := DecodeWithFaults(strings.NewReader("garbage")); err == nil {
		t.Error("DecodeWithFaults on garbage should fail")
	}
}
