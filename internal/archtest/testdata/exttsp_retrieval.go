// A second Ext-TSP merge retrieval beside the heap.

//archtest:at internal/exttsp/planted.go

package exttsp

type Options struct {
	UseHeap bool // want "Ext-TSP retrieval"
}

func runNaive(n int) int { return n } // want "Ext-TSP retrieval"

func layout(o Options, n int) int {
	if !o.UseHeap { // want "Ext-TSP retrieval"
		return runNaive(n) // want "Ext-TSP retrieval"
	}
	return n
}
