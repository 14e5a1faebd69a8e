// Package pool runs indexed tasks on a fixed set of workers: the figure
// grid's simulations and a farm's shards.
package pool

import (
	"sync"
	"sync/atomic"
)

// Each runs task(w, i) for every i in [0, n) on workers goroutines,
// clamped to [1, n], and returns each task's error in slot i. Each worker
// makes one W with newWorker and hands it to every task it runs, so a task
// may reuse the W's scratch without locks. Workers claim indices from one
// counter; after a task fails they claim no more, and the tasks already
// claimed finish. Results a task writes to its own slot of a caller's
// slice need no further synchronization. With n = 0 no goroutine starts.
func Each[W any](n, workers int, newWorker func() W, task func(w W, i int) error) []error {
	errs := make([]error, n)
	workers = min(max(workers, 1), n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			w := newWorker()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := task(w, i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}
