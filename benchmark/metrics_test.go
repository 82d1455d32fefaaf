package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the runner must honour.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

// TestSpecsMatchBenchmarkJSON: the runner declares exactly the workloads
// and metrics BENCHMARK.json names, with the same units.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the runner %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not one the runner knows", w.Name)
		}
	}
	for _, tc := range []struct {
		kind  string
		json  []declared
		specs []metricSpec
	}{
		{"end_to_end", doc.EndToEnd, endToEnd},
		{"per_layer", doc.PerLayer, perLayer},
	} {
		if len(tc.json) != len(tc.specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the runner %d", tc.kind, len(tc.json), len(tc.specs))
			continue
		}
		for i, m := range tc.json {
			if s := tc.specs[i]; m.Name != s.name || m.Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the runner %s (%s)", tc.kind, i, m.Name, m.Unit, s.name, s.unit)
			}
		}
	}
}

// TestRunnerPrintsEveryMetric: the value builders produce every declared
// metric and nothing else, with or without a daemon run, so every name in
// BENCHMARK.json is one the runner prints.
func TestRunnerPrintsEveryMetric(t *testing.T) {
	if _, err := renderMetrics(endToEnd, (&batchResult{}).metrics(1)); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	online := &onlineResult{before: &metricsDoc{}, after: &metricsDoc{}, requests: map[string][]float64{}}
	for _, o := range []*onlineResult{nil, online} {
		if _, err := renderMetrics(perLayer, layerMetrics(&layerRun{}, &batchResult{}, o, 0)); err != nil {
			t.Errorf("per-layer (online %v): %v", o != nil, err)
		}
	}
}

func TestRenderMetricsRejectsUndeclared(t *testing.T) {
	specs := []metricSpec{{"a", "s"}}
	if _, err := renderMetrics(specs, map[string]float64{"a": 1, "b": 2}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if _, err := renderMetrics(specs, map[string]float64{}); err == nil {
		t.Error("a missing metric was accepted")
	}
}
