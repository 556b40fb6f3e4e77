// Inter-procedural layout (§4.7, Fig. 3 of the paper): a large multi-modal
// function foo has two hot loops; each loop calls a different non-inlined
// callee. Intra-function layout can keep both callees near foo but not
// near their call sites; inter-procedural layout splits foo so each loop
// sits right next to its callee.
//
//	go run ./examples/interproc
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/sim"
)

// buildFig3 reconstructs the control flow of the paper's Figure 3.
func buildFig3() *core.Program {
	m := ir.NewModule("fig3")

	// Two non-inlined callees with meaty bodies.
	mkCallee := func(name string, c int64) {
		f := m.NewFunc(name, 1)
		e := f.Entry()
		for i := 0; i < 40; i++ {
			e.Emit(ir.Inst{Op: isa.OpAddI, A: 0, Imm: c})
		}
		e.Return()
	}
	mkCallee("left_callee", 1)
	mkCallee("right_callee", 2)

	foo := m.NewFunc("foo", 1)
	entry := foo.Entry()
	sel := foo.NewBlock()
	loop1 := foo.NewBlock()
	loop1Latch := foo.NewBlock()
	loop2 := foo.NewBlock()
	loop2Latch := foo.NewBlock()
	exit := foo.NewBlock()

	// entry code, then branch into loop 1 or loop 2 by the argument's
	// low bit (requests alternate, so both loops are hot).
	entry.Emit(ir.Inst{Op: isa.OpMovRR, A: 4, B: 0})   // mode
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 5, Imm: 60}) // trip count
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 6, Imm: 1})
	entry.Emit(ir.Inst{Op: isa.OpAnd, A: 4, B: 6})
	entry.Jump(sel)
	sel.Emit(ir.Inst{Op: isa.OpCmpI, A: 4, Imm: 0})
	sel.Branch(isa.CondEQ, loop1, loop2)

	loop1.Emit(ir.Inst{Op: isa.OpCall, Sym: "left_callee"})
	loop1.Jump(loop1Latch)
	loop1Latch.Emit(ir.Inst{Op: isa.OpAddI, A: 5, Imm: -1})
	loop1Latch.Emit(ir.Inst{Op: isa.OpCmpI, A: 5, Imm: 0})
	loop1Latch.Branch(isa.CondGT, loop1, exit)

	loop2.Emit(ir.Inst{Op: isa.OpCall, Sym: "right_callee"})
	loop2.Jump(loop2Latch)
	loop2Latch.Emit(ir.Inst{Op: isa.OpAddI, A: 5, Imm: -1})
	loop2Latch.Emit(ir.Inst{Op: isa.OpCmpI, A: 5, Imm: 0})
	loop2Latch.Branch(isa.CondGT, loop2, exit)

	exit.Return()

	// Driver.
	main := m.NewFunc("main", 0)
	me := main.Entry()
	mloop := main.NewBlock()
	mdone := main.NewBlock()
	me.Emit(ir.Inst{Op: isa.OpMovI, A: 8, Imm: 0})
	me.Emit(ir.Inst{Op: isa.OpMovI, A: 9, Imm: 0})
	me.Jump(mloop)
	mloop.Emit(ir.Inst{Op: isa.OpMovRR, A: 0, B: 8})
	mloop.Emit(ir.Inst{Op: isa.OpCall, Sym: "foo"})
	mloop.Emit(ir.Inst{Op: isa.OpAdd, A: 9, B: 0})
	mloop.Emit(ir.Inst{Op: isa.OpAddI, A: 8, Imm: 1})
	mloop.Emit(ir.Inst{Op: isa.OpCmpI, A: 8, Imm: 30_000})
	mloop.Branch(isa.CondLT, mloop, mdone)
	mdone.Emit(ir.Inst{Op: isa.OpMovRR, A: 0, B: 9})
	mdone.Halt()

	return &core.Program{Name: "fig3", Modules: []*ir.Module{m}}
}

// measure runs res's optimized binary, held to ref's checksum when ref is
// non-nil, and prints its final code layout.
func measure(label string, res *core.Result, ref *sim.Result) *sim.Result {
	r, err := core.Measure(res.Optimized.Binary, sim.Config{MaxInsts: 400_000_000}, ref)
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	fmt.Printf("%-16s cycles=%-10d L1i=%-6d taken=%-8d exit=%d\n",
		label, r.Cycles, r.Counters.L1IMiss, r.Counters.TakenBranch, r.Exit)
	// Show the final code layout: function fragments by address.
	type frag struct {
		name string
		addr uint64
	}
	var frags []frag
	for _, s := range res.Optimized.Binary.FuncSyms() {
		frags = append(frags, frag{s.Name, s.Addr})
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].addr < frags[j].addr })
	fmt.Printf("  layout:")
	for _, f := range frags {
		fmt.Printf(" %s@%#x", f.name, f.addr)
	}
	fmt.Println()
	return r
}

func main() {
	train := core.RunSpec{MaxInsts: 200_000_000, LBRPeriod: 101}

	intra, err := core.Optimize(buildFig3(), train, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ri := measure("intra-function", intra, nil)

	inter, err := core.Optimize(buildFig3(), train, core.Options{InterProc: true})
	if err != nil {
		log.Fatal(err)
	}
	rx := measure("inter-function", inter, ri)
	fmt.Printf("\nfoo split into %d cluster(s) under inter-procedural layout\n",
		len(inter.Directives["foo"].Clusters))
	fmt.Printf("inter vs intra: %+.2f%% cycles\n", 100*(1-float64(rx.Cycles)/float64(ri.Cycles)))
	fmt.Printf("WPA layout time: intra %v vs inter %v (%.1fx; paper reports 3-10x at scale)\n",
		intra.WPAStats.LayoutWall.Round(time.Microsecond), inter.WPAStats.LayoutWall.Round(time.Microsecond),
		float64(inter.WPAStats.LayoutWall)/float64(intra.WPAStats.LayoutWall))
}
