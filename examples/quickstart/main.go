// Quickstart: build a tiny program with the IR builder, run the whole
// Propeller pipeline on it, and compare the baseline and optimized
// binaries on the simulator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/sim"
)

// buildProgram constructs a module by hand: main loops a million times
// over a hot path that occasionally detours through a bulky cold error
// path — the textbook layout-optimization victim.
func buildProgram() *core.Program {
	m := ir.NewModule("app")
	f := m.NewFunc("main", 0)

	entry := f.Entry()
	loop := f.NewBlock()
	cold := f.NewBlock()
	latch := f.NewBlock()
	done := f.NewBlock()

	// r0 = accumulator, r1 = i
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 0, Imm: 0})
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 1, Imm: 0})
	entry.Jump(loop)

	// if (i & 1023) == 1023 take the cold path
	loop.Emit(ir.Inst{Op: isa.OpMovRR, A: 2, B: 1})
	loop.Emit(ir.Inst{Op: isa.OpMovI, A: 3, Imm: 1023})
	loop.Emit(ir.Inst{Op: isa.OpAnd, A: 2, B: 3})
	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: 2, Imm: 1023})
	loop.Branch(isa.CondEQ, cold, latch)

	for i := 0; i < 24; i++ { // bulky, rarely executed
		cold.Emit(ir.Inst{Op: isa.OpAddI, A: 0, Imm: 100})
	}
	cold.Jump(latch)

	latch.Emit(ir.Inst{Op: isa.OpAddI, A: 0, Imm: 1})
	latch.Emit(ir.Inst{Op: isa.OpAddI, A: 1, Imm: 1})
	latch.Emit(ir.Inst{Op: isa.OpCmpI, A: 1, Imm: 1_000_000})
	latch.Branch(isa.CondLT, loop, done)

	done.Halt()
	return &core.Program{Name: "quickstart", Modules: []*ir.Module{m}}
}

// run measures bin; with a reference run it must also reproduce that
// run's exit checksum, or the optimization changed program semantics.
func run(bin *core.BuildResult, label string, ref *sim.Result) *sim.Result {
	res, err := core.Measure(bin.Binary, sim.Config{MaxInsts: 100_000_000}, ref)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%-10s exit=%d cycles=%-10d taken-branches=%-8d ipc=%.3f\n",
		label, res.Exit, res.Cycles, res.Counters.TakenBranch, res.IPC())
	return res
}

func main() {
	p := buildProgram()

	// Baseline build (this program has no profile yet, so this is -O3).
	base, err := core.BuildBaseline(p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	baseRes := run(base, "baseline", nil)

	// The full Propeller pipeline: build with metadata, profile under the
	// LBR sampler, whole-program analysis, rebuild hot objects with
	// cluster directives, relink with the global symbol order.
	res, err := core.Optimize(p, core.RunSpec{MaxInsts: 100_000_000, LBRPeriod: 101}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	optRes := run(res.Optimized, "propeller", baseRes)
	fmt.Printf("\nhot functions: %v\n", res.SortedHotFunctions())
	fmt.Printf("layout directives (cc_prof): %v\n", res.Directives["main"].Clusters)
	fmt.Printf("improvement: %.2f%% fewer cycles, %.2f%% fewer taken branches\n",
		100*(1-float64(optRes.Cycles)/float64(baseRes.Cycles)),
		100*(1-float64(optRes.Counters.TakenBranch)/float64(baseRes.Counters.TakenBranch)))
}
