package scenarioio

import (
	"bytes"
	"os"
	"testing"

	"dsmec/internal/rng"
	"dsmec/internal/workload"
)

// largeDecodeBudget pins the bytes allocated per streaming decode of the
// 100k-device document below. Measured at ~153 MB/op on the recording
// box (the resident scenario — task arena, ID index, topology, cost
// model — dominates); the whole-document decoder it replaced cost ~498
// MB/op on the same input. The budget leaves ~25% headroom for
// toolchain drift while still catching any return to whole-document
// materialization, which re-adds hundreds of MB.
const largeDecodeBudget = 192 << 20

// TestLargeScenarioMemoryBudget is the `make bench-smoke` large-scenario
// memory gate: generate a 100k-device / 200k-task scenario, stream it to
// JSON, and stream-decode it back under a pinned B/op budget. The run
// allocates hundreds of megabytes and takes seconds, so it only runs
// when MEC_LARGE_SMOKE=1 (the Makefile sets it).
func TestLargeScenarioMemoryBudget(t *testing.T) {
	if os.Getenv("MEC_LARGE_SMOKE") == "" {
		t.Skip("set MEC_LARGE_SMOKE=1 to run the large-scenario memory check")
	}
	sc, err := workload.GenerateHolistic(rng.NewSource(9), workload.Params{
		NumDevices: 100_000, NumStations: 1_000, NumTasks: 200_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, sc); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	t.Logf("document: %.1f MB for %d devices / %d tasks",
		float64(len(doc))/(1<<20), sc.System.NumDevices(), sc.Tasks.Len())

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := Decode(bytes.NewReader(doc))
			if err != nil {
				b.Fatal(err)
			}
			if got.Tasks.Len() != sc.Tasks.Len() {
				b.Fatalf("decoded %d tasks, want %d", got.Tasks.Len(), sc.Tasks.Len())
			}
		}
	})
	perOp := r.AllocedBytesPerOp()
	t.Logf("decode: %.1f MB/op, %d allocs/op over %d iteration(s)",
		float64(perOp)/(1<<20), r.AllocsPerOp(), r.N)
	if perOp > largeDecodeBudget {
		t.Errorf("streaming decode allocated %d B/op, budget %d B/op", perOp, int64(largeDecodeBudget))
	}
}
