package par

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settle waits for the goroutine count to return to base: a goroutine
// that has signalled its WaitGroup is still counted until it has exited.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before Do: a worker outlived it", what, runtime.NumGoroutine(), base)
		}
	}
}

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 200} {
			runs := make([]atomic.Int32, n)
			if err := Do(n, workers, func(i int) error {
				runs[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestDoBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		var active, peak atomic.Int32
		_ = Do(64, workers, func(int) error {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			active.Add(-1)
			return nil
		})
		if p := peak.Load(); p > int32(workers) {
			t.Fatalf("workers=%d: %d tasks ran at once", workers, p)
		}
	}
}

// TestDoStartsOnlyNGoroutines holds all n tasks at a barrier, which only
// opens once n run at once, and counts the goroutines beside the test's.
func TestDoStartsOnlyNGoroutines(t *testing.T) {
	const n = 4
	base := runtime.NumGoroutine()
	var arrived atomic.Int32
	open := make(chan struct{})
	var during atomic.Int32
	_ = Do(n, 16, func(int) error {
		if arrived.Add(1) == n {
			during.Store(int32(runtime.NumGoroutine()))
			close(open)
		}
		select {
		case <-open:
		case <-time.After(5 * time.Second):
			t.Error("barrier never opened: fewer than n tasks ran at once")
		}
		return nil
	})
	if got := int(during.Load()) - base; got != n {
		t.Fatalf("%d goroutines started for %d tasks at 16 workers", got, n)
	}
	settle(t, base, "workers > n")
}

func TestDoSerialStartsNoGoroutine(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -3}, {1, 8}, {0, 8}} {
		base := runtime.NumGoroutine()
		var order []int
		_ = Do(tc.n, tc.workers, func(i int) error {
			if g := runtime.NumGoroutine(); g != base {
				t.Errorf("n=%d workers=%d: %d goroutines during the task, %d before Do", tc.n, tc.workers, g, base)
			}
			order = append(order, i)
			return nil
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d workers=%d: serial order %v", tc.n, tc.workers, order)
			}
		}
		if len(order) != tc.n {
			t.Fatalf("n=%d workers=%d: %d tasks ran", tc.n, tc.workers, len(order))
		}
	}
}

func TestDoRunsEveryTaskAfterAFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int32
		boom := errors.New("boom")
		err := Do(50, workers, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			return nil
		})
		if err != boom || ran.Load() != 50 {
			t.Fatalf("workers=%d: err %v, %d of 50 tasks ran", workers, err, ran.Load())
		}
	}
}

// checkLowest runs n tasks at workers, each sleeping delay[i] and failing
// where fails[i], and wants the lowest failing index's error back.
func checkLowest(t *testing.T, what string, workers int, delay []time.Duration, fails []bool) {
	t.Helper()
	errs := make([]error, len(delay))
	var want error
	for i := range errs {
		errs[i] = fmt.Errorf("task %d", i)
		if fails[i] && want == nil {
			want = errs[i]
		}
	}
	base := runtime.NumGoroutine()
	got := Do(len(delay), workers, func(i int) error {
		time.Sleep(delay[i])
		if fails[i] {
			return errs[i]
		}
		return nil
	})
	if got != want {
		t.Fatalf("%s workers=%d: got %v, want %v", what, workers, got, want)
	}
	settle(t, base, what)
}

// TestDoLowestErrorUnderAdversarialOrders makes later indices finish
// first: in reverse index order, and in seeded random orders.
func TestDoLowestErrorUnderAdversarialOrders(t *testing.T) {
	for _, workers := range []int{2, 8} {
		const n = 16
		delay := make([]time.Duration, n)
		fails := make([]bool, n)
		for i := range delay {
			delay[i] = time.Duration(n-i) * 100 * time.Microsecond
		}
		fails[3], fails[5], fails[11], fails[15] = true, true, true, true
		checkLowest(t, "reverse", workers, delay, fails)

		rng := rand.New(rand.NewSource(int64(workers)))
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(32)
			delay, fails := make([]time.Duration, n), make([]bool, n)
			for i := range delay {
				delay[i] = time.Duration(rng.Intn(200)) * time.Microsecond
				fails[i] = rng.Intn(3) == 0
			}
			checkLowest(t, fmt.Sprintf("trial %d", trial), workers, delay, fails)
		}
	}
}

func TestJoinReturnsOneResult(t *testing.T) {
	var calls atomic.Int32
	v := 42
	j := Start(func() *int {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return &v
	})
	_ = Do(16, 8, func(int) error {
		if got := j.Join(); got != &v {
			t.Errorf("concurrent Join = %p, want %p", got, &v)
		}
		return nil
	})
	for k := 0; k < 3; k++ {
		if got := j.Join(); got != &v {
			t.Fatalf("repeated Join = %p, want %p", got, &v)
		}
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times", c)
	}
}
