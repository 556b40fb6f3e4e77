// Package par runs independent tasks side by side: indexed fan-outs (Do)
// and work started now and read later (Start).
//
// Do's contract is the whole determinism story for its callers: a task
// writes only its own index's slot, the caller reduces the slots in index
// order after Do returns, and the error reported is the lowest failing
// index's. Completion order then never reaches a result.
//
// Long-lived channel consumers run on Do too, each task draining a queue
// until it is closed. wpa's aggregation is an owner and its helpers: task
// 0 owns the feed and the other tasks take what it hands them.
// fleetprof.Service starts one job whose Do runs every shard's ingest
// workers until Drain closes their queues.
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
	d := &do{n: n, fn: fn, low: n}
	workers = min(workers, n)
	if workers <= 1 {
		d.run()
		return d.first
	}
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer d.wg.Done()
			d.run()
		}()
	}
	d.wg.Wait()
	return d.first
}

// do is one Do call's shared state, allocated once whatever the worker
// count.
type do struct {
	next  atomic.Int64
	n     int
	fn    func(i int) error
	mu    sync.Mutex
	low   int // lowest failing index so far; n while none has failed
	first error
	wg    sync.WaitGroup
}

// run takes indices until none is left.
func (d *do) run() {
	for i := int(d.next.Add(1)) - 1; i < d.n; i = int(d.next.Add(1)) - 1 {
		if err := d.fn(i); err != nil {
			d.mu.Lock()
			if i < d.low {
				d.low, d.first = i, err
			}
			d.mu.Unlock()
		}
	}
}

// Job is work started now and read later.
type Job[T any] struct {
	done chan struct{}
	v    T
}

// Start runs fn on a goroutine of its own. A job that lives until the
// process exits, such as an HTTP server, may go unjoined.
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
