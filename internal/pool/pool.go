package pool

import (
	"errors"
	"sync"
)

// ForEach runs fn for indices 0..n-1 over at most workers goroutines;
// workers <= 1 runs inline, in index order. Every index runs even after a
// failure, and the joined error lists the failures in index order.
func ForEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers <= 1 || n <= 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
		return errors.Join(errs...)
	}
	workers = min(workers, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := range errs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}
