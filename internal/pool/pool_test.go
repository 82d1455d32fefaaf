package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 64} {
			hits := make([]atomic.Int32, n)
			if err := ForEach(n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachJoinsErrorsInIndexOrder(t *testing.T) {
	sentinel := errors.New("sentinel")
	for _, workers := range []int{1, 3} {
		var ran atomic.Int32
		err := ForEach(6, workers, func(i int) error {
			ran.Add(1)
			switch i {
			case 1:
				return sentinel
			case 4:
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if got := ran.Load(); got != 6 {
			t.Errorf("workers=%d: %d indices ran after a failure, want all 6", workers, got)
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: %v does not wrap the sentinel", workers, err)
		}
		if want := "sentinel\nindex 4 failed"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}
