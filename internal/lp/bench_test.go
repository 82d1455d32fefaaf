package lp_test

import (
	"fmt"
	"testing"

	"dsmec/internal/lp"
	"dsmec/internal/perfbench"
)

// The build benchmarks isolate constraint-row construction — the memory
// the sparse form is meant to save; the solve benchmarks cover the full
// hot path (build + standard-form lowering + simplex) on the same instance.

func benchBuild(b *testing.B, tasks int, sparse bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := perfbench.ClusterLP(tasks, sparse)
		if len(p.Constraints) == 0 {
			b.Fatal("empty problem")
		}
	}
}

func benchSolve(b *testing.B, tasks int, sparse bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := perfbench.ClusterLP(tasks, sparse)
		s, err := lp.Solve(p)
		if err != nil {
			b.Fatal(err)
		}
		if s.Status != lp.Optimal {
			b.Fatalf("status %v", s.Status)
		}
	}
}

func BenchmarkClusterLPBuild(b *testing.B) {
	for _, tasks := range []int{30, 90, 300} {
		for _, sparse := range []bool{false, true} {
			form := "dense"
			if sparse {
				form = "sparse"
			}
			b.Run(fmt.Sprintf("tasks=%d/%s", tasks, form), func(b *testing.B) {
				benchBuild(b, tasks, sparse)
			})
		}
	}
}

func BenchmarkLPSolveCluster(b *testing.B) {
	for _, tasks := range []int{30, 90} {
		for _, sparse := range []bool{false, true} {
			form := "dense"
			if sparse {
				form = "sparse"
			}
			b.Run(fmt.Sprintf("tasks=%d/%s", tasks, form), func(b *testing.B) {
				benchSolve(b, tasks, sparse)
			})
		}
	}
}

// BenchmarkLPSolveClusterSizes solves the sparse-row instances mecperf
// records as lp_solve/tasks=N/method=revised (at go-test-friendly sizes).
func BenchmarkLPSolveClusterSizes(b *testing.B) {
	for _, tasks := range []int{90, 300} {
		b.Run(fmt.Sprintf("tasks=%d", tasks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := lp.Solve(perfbench.ClusterLP(tasks, true))
				if err != nil {
					b.Fatal(err)
				}
				if s.Status != lp.Optimal {
					b.Fatalf("status %v", s.Status)
				}
			}
		})
	}
}
