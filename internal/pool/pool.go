// Package pool is the repo's one bounded worker pool: the experiment
// repetitions, the store's shard drive and the soak's multi-run fan-out
// all go through Run.
//
//ftss:det results land by index, so callers see the output of a sequential loop whatever the worker count
package pool

//ftss:pool workers claim the next index under a mutex and write only their own result slot; Run returns after every worker has exited

import "sync"

// Run evaluates fn(0..n-1) across at most workers goroutines and returns
// the results in index order. workers ≤ 1 runs inline with no goroutine
// at all, so a single-worker run is the sequential loop itself. fn must
// not share mutable state across calls.
func Run[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
