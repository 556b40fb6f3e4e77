// A named function started by a go statement in a loop and joined on a
// channel: a fan-out that a text match on "go func" lets through.

//archtest:at internal/wpa/planted.go

package wpa

import "sync"

func work(i int, done chan<- int) { done <- i * i }

func squares(n int) int {
	done := make(chan int)
	for i := 0; i < n; i++ {
		go work(i, done) // want "fan-out"
	}
	sum := 0
	for i := 0; i < n; i++ {
		sum += <-done
	}
	return sum
}

func waitAll(fns []func()) {
	var wg sync.WaitGroup // want "fan-out"
	for _, fn := range fns {
		wg.Add(1)
		go func() { // want "fan-out"
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}
