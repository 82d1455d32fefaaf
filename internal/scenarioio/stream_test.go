package scenarioio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsmec/internal/rng"
	"dsmec/internal/sim"
	"dsmec/internal/units"
	"dsmec/internal/workload"
)

// streamScenarios builds one scenario per interesting shape: holistic
// (no placement), divisible (placement with per-device holdings), and
// holistic with an embedded fault plan.
func streamScenarios(t *testing.T) map[string]struct {
	sc *workload.Scenario
	fp *sim.FaultPlan
} {
	t.Helper()
	hol, err := workload.GenerateHolistic(rng.NewSource(11), workload.Params{
		NumDevices: 10, NumStations: 3, NumTasks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	div, err := workload.GenerateDivisible(rng.NewSource(12), workload.Params{
		NumDevices: 8, NumStations: 2, NumTasks: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := workload.GenerateHolistic(rng.NewSource(13), workload.Params{
		NumDevices: 6, NumStations: 2, NumTasks: 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	fp := sim.GenerateFaultPlan(rng.NewSource(14), faulty.System, sim.FaultParams{
		OutageRate: 0.5, ChurnRate: 0.1, DegradeRate: 0.3, Horizon: 10 * units.Second,
	})
	return map[string]struct {
		sc *workload.Scenario
		fp *sim.FaultPlan
	}{
		"holistic":  {hol, nil},
		"divisible": {div, nil},
		"faults":    {faulty, fp},
	}
}

// goldenDocument reads the committed document of one streamScenarios
// case. The goldens were written by json.Encoder with SetIndent("", "  ")
// over the whole document, so they pin the streaming encoder to that
// layout.
func goldenDocument(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamEncodeMatchesDocument pins the streaming encoder to the
// golden documents byte for byte: downstream hashes of scenario files
// must not change because of how they were written.
func TestStreamEncodeMatchesDocument(t *testing.T) {
	for name, tc := range streamScenarios(t) {
		t.Run(name, func(t *testing.T) {
			want := goldenDocument(t, name)
			var stream bytes.Buffer
			if err := encodeStream(&stream, tc.sc, faultsToDoc(tc.fp)); err != nil {
				t.Fatalf("encodeStream: %v", err)
			}
			if !bytes.Equal(want, stream.Bytes()) {
				a, b := want, stream.Bytes()
				n := len(a)
				if len(b) < n {
					n = len(b)
				}
				at := n
				for i := 0; i < n; i++ {
					if a[i] != b[i] {
						at = i
						break
					}
				}
				lo := at - 60
				if lo < 0 {
					lo = 0
				}
				hiA, hiB := at+60, at+60
				if hiA > len(a) {
					hiA = len(a)
				}
				if hiB > len(b) {
					hiB = len(b)
				}
				t.Fatalf("stream output diverges from the golden document at byte %d:\ngolden: %q\nstream: %q",
					at, a[lo:hiA], b[lo:hiB])
			}
		})
	}
}

// TestStreamDecodeMatchesDocument pins the streaming decoder to the
// golden documents: decoding one must rebuild the scenario and the fault
// plan it was written from.
func TestStreamDecodeMatchesDocument(t *testing.T) {
	for name, tc := range streamScenarios(t) {
		t.Run(name, func(t *testing.T) {
			got, gotFd, err := decodeStream(bytes.NewReader(goldenDocument(t, name)))
			if err != nil {
				t.Fatalf("decodeStream: %v", err)
			}
			want := tc.sc

			if got.System.NumDevices() != want.System.NumDevices() ||
				got.System.NumStations() != want.System.NumStations() {
				t.Fatal("topology differs from the golden's source")
			}
			for i := range want.System.Devices {
				if got.System.Devices[i] != want.System.Devices[i] {
					t.Fatalf("device %d differs from the golden's source", i)
				}
			}
			for i := range want.System.Stations {
				if got.System.Stations[i] != want.System.Stations[i] {
					t.Fatalf("station %d differs from the golden's source", i)
				}
			}
			if got.System.Cloud != want.System.Cloud ||
				got.System.StationWire != want.System.StationWire ||
				got.System.CloudWire != want.System.CloudWire {
				t.Fatal("cloud/wires differ from the golden's source")
			}

			if got.Tasks.Len() != want.Tasks.Len() {
				t.Fatal("task count differs from the golden's source")
			}
			for i := 0; i < want.Tasks.Len(); i++ {
				a, b := want.Tasks.At(i), got.Tasks.At(i)
				if a.ID != b.ID || a.Kind != b.Kind || a.OpSize != b.OpSize ||
					a.LocalSize != b.LocalSize || a.ExternalSize != b.ExternalSize ||
					a.ExternalSource != b.ExternalSource || a.Resource != b.Resource ||
					a.Deadline != b.Deadline {
					t.Fatalf("task %d differs from the golden's source: %+v vs %+v", i, a, b)
				}
				if !a.LocalBlocks.Equal(b.LocalBlocks) || !a.ExternalBlocks.Equal(b.ExternalBlocks) {
					t.Fatalf("task %d block sets differ from the golden's source", i)
				}
			}

			if (want.Placement == nil) != (got.Placement == nil) {
				t.Fatal("placement presence differs from the golden's source")
			}
			if want.Placement != nil {
				if want.Placement.NumBlocks() != got.Placement.NumBlocks() ||
					want.Placement.BlockSize() != got.Placement.BlockSize() {
					t.Fatal("placement dimensions differ from the golden's source")
				}
				for d := 0; d < want.Placement.NumDevices(); d++ {
					a, err := want.Placement.Holding(d)
					if err != nil {
						t.Fatal(err)
					}
					b, err := got.Placement.Holding(d)
					if err != nil {
						t.Fatal(err)
					}
					if !a.Equal(b) {
						t.Fatalf("device %d holding differs from the golden's source", d)
					}
				}
			}

			gotFp, err := faultsFromDoc(gotFd)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFp, tc.fp) {
				t.Fatal("fault plan differs from the golden's source")
			}
		})
	}
}

// TestStreamDecodeFieldOrder checks the token-walking decoder accepts
// documents whose top-level keys arrive in any order (JSON objects are
// unordered).
func TestStreamDecodeFieldOrder(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(15), workload.Params{
		NumDevices: 4, NumStations: 1, NumTasks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Re-emit with tasks before system and version last.
	var out bytes.Buffer
	for i, key := range []string{"tasks", "cost_model", "system", "version"} {
		if i == 0 {
			out.WriteString("{")
		} else {
			out.WriteString(",")
		}
		fmt.Fprintf(&out, "%q:%s", key, doc[key])
	}
	out.WriteString("}")

	got, err := Decode(&out)
	if err != nil {
		t.Fatalf("Decode with reordered fields: %v", err)
	}
	if got.Tasks.Len() != sc.Tasks.Len() || got.System.NumDevices() != sc.System.NumDevices() {
		t.Fatal("reordered document decoded incorrectly")
	}
}

// TestPinnedDocumentRoundTrip decodes a document written by an earlier
// build and re-encodes it byte for byte, so documents already on disk
// keep their exact text.
func TestPinnedDocumentRoundTrip(t *testing.T) {
	want, err := os.ReadFile(pinnedDocument)
	if err != nil {
		t.Fatal(err)
	}
	sc, fp, err := DecodeWithFaults(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := EncodeWithFaults(&got, sc, fp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded %s differs: %d bytes, want %d", pinnedDocument, got.Len(), len(want))
	}
}
