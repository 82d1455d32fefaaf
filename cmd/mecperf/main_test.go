package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline stores doc as a baseline file and returns its path.
func writeBaseline(t *testing.T, doc baseline) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareBaselineGatesRows(t *testing.T) {
	row := func(name string, allocs, bytes int64) benchResult {
		return benchResult{Name: name, Iterations: 1, NsPerOp: 100, AllocsPerOp: allocs, BytesPerOp: bytes}
	}
	path := writeBaseline(t, baseline{Benchmarks: []benchResult{
		row("a", 10, 1000),
		row("b", 10, 1000),
	}})
	cases := []struct {
		name    string
		fresh   []benchResult
		wantErr string
	}{
		{"identical", []benchResult{row("a", 10, 1000), row("b", 10, 1000)}, ""},
		{"new row is advisory", []benchResult{row("a", 10, 1000), row("b", 10, 1000), row("c", 99, 9999)}, ""},
		{"allocs regression", []benchResult{row("a", 20, 1000), row("b", 10, 1000)}, "1 perf regression(s)"},
		{"baseline row missing", []benchResult{row("a", 10, 1000)}, "1 baseline row(s) missing"},
		{"no shared rows", []benchResult{row("c", 10, 1000)}, "shares no benchmark names"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBaseline(&baseline{Benchmarks: tc.fresh}, path, 0.25)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
