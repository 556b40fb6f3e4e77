// Package par runs independent tasks side by side: indexed fan-outs (Do)
// and work started now and read later (Start).
//
// Do's contract is the whole determinism story for its callers: a task
// writes only its own index's slot, the caller reduces the slots in index
// order after Do returns, and the error reported is the lowest failing
// index's. Completion order then never reaches a result.
//
// exttsp's batch pool runs on Do too: task 0 owns the merge state and
// the others are helpers scoring whatever re-scoring batches it offers,
// so exttsp keeps only the batch hand-off's WaitGroup. The two goroutine
// sets that remain are not indexed fan-outs and do not use Do:
// wpa.Aggregator's stream shards and fleetprof.Service's shard workers,
// long-lived consumers of a channel fed for as long as the stream runs.
package par

import (
	"sync"
	"sync/atomic"
)

// Do runs fn(0), …, fn(n-1) on at most min(workers, n) goroutines, which
// take indices in ascending order; with workers <= 1 or n <= 1 it runs
// them on the caller's goroutine. Every task runs even after one fails.
// Do returns once all have finished, with the lowest failing index's error.
func Do(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	low, first := n, error(nil)
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := fn(i); err != nil {
				mu.Lock()
				if i < low {
					low, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	workers = min(workers, n)
	if workers <= 1 {
		run()
		return first
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	return first
}

// Job is work started now and read later.
type Job[T any] struct {
	done chan struct{}
	v    T
}

// Start runs fn on a goroutine of its own.
func Start[T any](fn func() T) *Job[T] {
	j := &Job[T]{done: make(chan struct{})}
	go func() {
		defer close(j.done)
		j.v = fn()
	}()
	return j
}

// Join waits for fn to return and returns its result: the same result to
// every caller, however many times and from however many goroutines.
func (j *Job[T]) Join() T {
	<-j.done
	return j.v
}
