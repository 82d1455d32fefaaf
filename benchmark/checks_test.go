package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dsmec/internal/core"
	"dsmec/internal/costmodel"
	"dsmec/internal/rng"
	"dsmec/internal/workload"
)

// sampleReport is a mecsim holistic report in the shape the checks parse.
const sampleReport = `scenario: 400 devices, 40 stations, 20000 holistic tasks

method      energy (J)  mean latency (s)  unsatisfied  device/station/cloud/cancel
----------  ----------  ----------------  -----------  ---------------------------
LP-HTA      135693.8    1.590             61.7%        2623/2270/2759/12348
HGOS        408130.8    2.294             78.4%        1696/1529/16775/0

LP-HTA internals: LP optimum 368326.0 J over 53673 simplex iterations; 437 fractional tasks; Δ = 7811.443J; ratio bound ≤ 3.021

discrete-event replay of LP-HTA: mean latency 17.355s (analytic 1.590s), makespan 51.237s, 7435 deadline misses under queueing
`

func TestGoodReportPasses(t *testing.T) {
	r, err := parseReport([]byte(sampleReport))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(r, 20000); err != nil {
		t.Fatalf("a good report failed its checks: %v", err)
	}
	if r.energyJ != 135693.8 || r.counts != [4]int{2623, 2270, 2759, 12348} || r.misses != 7435 {
		t.Errorf("parsed %+v", r)
	}
}

// TestCorruptedReportFails: a report whose numbers break an invariant is
// a failed run.
func TestCorruptedReportFails(t *testing.T) {
	for name, corrupt := range map[string]func(string) string{
		"placements do not sum": func(s string) string { return strings.Replace(s, "2623/2270", "2624/2270", 1) },
		"energy above 3·E_LP+Δ": func(s string) string { return strings.Replace(s, "LP optimum 368326.0", "LP optimum 36832.0", 1) },
		"wrong task count":      func(s string) string { return strings.Replace(s, "20000 holistic", "19999 holistic", 1) },
		"misses exceed tasks":   func(s string) string { return strings.Replace(s, "7435 deadline", "20001 deadline", 1) },
		"row missing":           func(s string) string { return strings.Replace(s, "LP-HTA      ", "LP-HTX      ", 1) },
	} {
		r, err := parseReport([]byte(corrupt(sampleReport)))
		if err == nil {
			err = checkReport(r, 20000)
		}
		if err == nil {
			t.Errorf("%s: corrupted report passed", name)
		}
	}
}

// TestWrongReferenceFails: a report that differs from the committed
// reference fails; a different simplex iteration count (a work counter)
// does not.
func TestWrongReferenceFails(t *testing.T) {
	ref := filepath.Join(t.TempDir(), "ref.txt")
	if err := os.WriteFile(ref, maskCounters([]byte(sampleReport)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkReference([]byte(sampleReport), ref); err != nil {
		t.Fatalf("identical report: %v", err)
	}
	moreWork := strings.Replace(sampleReport, "53673 simplex", "61000 simplex", 1)
	if err := checkReference([]byte(moreWork), ref); err != nil {
		t.Errorf("a changed iteration count failed the reference: %v", err)
	}
	flipped := strings.Replace(sampleReport, "2623/2270/2759", "2622/2271/2759", 1)
	if err := checkReference([]byte(flipped), ref); err == nil {
		t.Error("a report with one task moved passed the reference")
	}
}

// TestCommittedReferencesParse: every committed reference is a report the
// checks accept, so a default-seed run can match it.
func TestCommittedReferencesParse(t *testing.T) {
	for _, w := range workloads {
		b, err := os.ReadFile(filepath.Join("reference", w.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Replace(b, []byte("over N simplex"), []byte("over 1 simplex"), 1)
		r, err := parseReport(b)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := checkReport(r, w.tasks); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestLibraryMismatchFails(t *testing.T) {
	r, err := parseReport([]byte(sampleReport))
	if err != nil {
		t.Fatal(err)
	}
	lib := *r
	lib.devices, lib.stations = 0, 0
	if err := compareReports(r, &lib); err != nil {
		t.Fatalf("equal reports: %v", err)
	}
	lib.counts[0]--
	lib.counts[3]++
	if err := compareReports(r, &lib); err == nil {
		t.Error("a library result with one task cancelled matched the binary's report")
	}
}

// TestFlippedAssignmentFails: the online check compares the daemon's rows
// with batch LP-HTA; one task's subsystem flipped fails the run.
func TestFlippedAssignmentFails(t *testing.T) {
	sc, err := workload.GenerateHolistic(rng.NewSource(3), workload.Params{NumDevices: 12, NumStations: 3, NumTasks: 60})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.LPHTA(sc.Model, sc.Tasks, &core.LPHTAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := &assignmentsDoc{Summary: solveDoc{
		Tasks:          sc.Tasks.Len(),
		LPObjectiveJ:   batch.LPObjective.Joules(),
		RoundedEnergyJ: batch.RoundedEnergy.Joules(),
	}}
	for i := 0; i < sc.Tasks.Len(); i++ {
		id := sc.Tasks.At(i).ID
		l := batch.Assignment.Of(id)
		if l == costmodel.SubsystemNone {
			doc.Summary.Cancelled++
		} else {
			doc.Summary.Placed++
		}
		doc.Assignments = append(doc.Assignments, assignmentRow{User: id.User, Index: id.Index, Subsystem: l.String()})
	}
	sort.Slice(doc.Assignments, func(i, j int) bool {
		a, b := doc.Assignments[i], doc.Assignments[j]
		return a.User < b.User || (a.User == b.User && a.Index < b.Index)
	})
	if err := checkAssignments(doc, sc.Model, sc.Tasks); err != nil {
		t.Fatalf("the batch assignment itself failed: %v", err)
	}

	row := &doc.Assignments[len(doc.Assignments)/2]
	orig := row.Subsystem
	row.Subsystem = costmodel.SubsystemCloud.String()
	if orig == row.Subsystem {
		row.Subsystem = costmodel.SubsystemDevice.String()
	}
	err = checkAssignments(doc, sc.Model, sc.Tasks)
	if err == nil {
		t.Fatal("an assignment with one task's subsystem flipped passed")
	}
	var led ledger
	led.op("phase1", nil)
	led.check("phase1", err)
	if led.correct() || led.failed != 1 || led.failedRatio() != 0.5 {
		t.Errorf("a failed check left the run correct=%v failed=%d ratio=%v", led.correct(), led.failed, led.failedRatio())
	}
}
