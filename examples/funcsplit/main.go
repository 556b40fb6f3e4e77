// Function splitting (§4.6 of the paper): compares three ways of handling
// hot functions whose bodies are mostly cold —
//
//  1. no splitting (the cold bytes pollute icache/iTLB reach),
//
//  2. the pre-Propeller machine-function splitter, which extracts cold
//     blocks behind a call and pays call/ret overhead (Fig. 2 centre),
//
//  3. Propeller's basic-block-section splitting: the cold cluster becomes
//     its own section placed far away, with no added instructions.
//
//     go run ./examples/funcsplit
package main

import (
	"fmt"
	"log"

	"propeller/internal/core"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

// measure runs bin, held to ref's checksum when ref is non-nil: splitting
// must not change program semantics.
func measure(label string, bin *core.BuildResult, ref *sim.Result) *sim.Result {
	res, err := core.Measure(bin.Binary, sim.Config{MaxInsts: 400_000_000}, ref)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%-24s cycles=%-10d L1i-miss=%-7d iTLB-miss=%-6d text=%4dKB exit=%d\n",
		label, res.Cycles, res.Counters.L1IMiss, res.Counters.ITLBMiss,
		bin.Binary.Stats().Text/1024, res.Exit)
	return res
}

func main() {
	// A clang-like workload: a modest hot set inside a large cold text,
	// with cold error paths inside hot functions.
	spec := workload.Clang()
	spec.Requests = 6000
	prog, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	train := core.RunSpec{MaxInsts: 300_000_000, LBRPeriod: 211}
	optimized, _, err := core.PreparePGO(prog.Core, train, core.Options{}, core.PGOOptions{})
	if err != nil {
		log.Fatal(err)
	}
	p := &core.Program{Name: spec.Name, Modules: optimized, Entry: "main"}

	noSplit, err := core.BuildBaseline(p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	baseRes := measure("no splitting", noSplit, nil)

	heur, err := core.BuildBaseline(p, core.Options{HeuristicSplit: true})
	if err != nil {
		log.Fatal(err)
	}
	heurRes := measure("call-based splitting", heur, baseRes)

	prop, err := core.Optimize(p, train, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	propRes := measure("bb-section splitting", prop.Optimized, baseRes)
	heurGain := 100 * (1 - float64(heurRes.Cycles)/float64(baseRes.Cycles))
	bbGain := 100 * (1 - float64(propRes.Cycles)/float64(baseRes.Cycles))
	fmt.Printf("\ncall-based splitting gain: %+.2f%%\n", heurGain)
	fmt.Printf("bb-section splitting gain: %+.2f%%", bbGain)
	if heurGain > 0 && bbGain > heurGain {
		fmt.Printf("  (%.1fx the heuristic splitter, cf. §4.6's ~2x)", bbGain/heurGain)
	}
	fmt.Println()
	fmt.Printf("iTLB misses vs baseline: call-based %.0f%%, bb-sections %.0f%% (paper: up to -40%%)\n",
		100*float64(heurRes.Counters.ITLBMiss)/float64(baseRes.Counters.ITLBMiss),
		100*float64(propRes.Counters.ITLBMiss)/float64(baseRes.Counters.ITLBMiss))
}
