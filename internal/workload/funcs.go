package workload

import (
	"propeller/internal/ir"
	"propeller/internal/isa"
)

// Function-body generation. All generated functions follow one calling
// convention so that arbitrary call nesting stays correct:
//
//   - argument and result in r0;
//   - r1..r3 caller-owned scratch (dead across calls);
//   - r4..r7 callee-saved (pushed/popped by any function that uses them);
//   - r8/r9 reserved for main's driver loop (never touched by callees);
//   - r10/r11 leaf-helper scratch;
//   - r12/r13 reserved for codegen.
//
// Conditions are computed with AND masks so values stay non-negative and
// switch indices stay in range regardless of how r0 evolves.

// emitLeaf creates a small inlinable helper: r0 = mix(r0).
func (g *gen) emitLeaf(m *ir.Module, name string) {
	f := m.NewFunc(name, 1)
	e := f.Entry()
	c1 := int64(1 + g.rng.Intn(9))
	c2 := int64(1 + g.rng.Intn(7))
	e.Emit(ir.Inst{Op: isa.OpMovRR, A: rLeafA, B: rVal})
	e.Emit(ir.Inst{Op: isa.OpMovI, A: rLeafB, Imm: c1})
	e.Emit(ir.Inst{Op: isa.OpShr, A: rLeafA, B: rLeafB})
	e.Emit(ir.Inst{Op: isa.OpXor, A: rVal, B: rLeafA})
	e.Emit(ir.Inst{Op: isa.OpAddI, A: rVal, Imm: c2})
	e.Return()
	g.totalBlocks += len(f.Blocks)
}

// emitThrower creates the shared conditional thrower used by EH regions:
// throws when (r0 & 63) == 63, else returns r0+1.
func (g *gen) emitThrower(m *ir.Module) {
	f := m.NewFunc("thrower_"+g.spec.Name, 1)
	e := f.Entry()
	t := f.NewBlock()
	r := f.NewBlock()
	e.Emit(ir.Inst{Op: isa.OpMovRR, A: rLeafA, B: rVal})
	e.Emit(ir.Inst{Op: isa.OpMovI, A: rLeafB, Imm: 63})
	e.Emit(ir.Inst{Op: isa.OpAnd, A: rLeafA, B: rLeafB})
	e.Emit(ir.Inst{Op: isa.OpCmpI, A: rLeafA, Imm: 63})
	e.Branch(isa.CondEQ, t, r)
	t.Throw()
	r.Emit(ir.Inst{Op: isa.OpAddI, A: rVal, Imm: 1})
	r.Return()
	g.totalBlocks += len(f.Blocks)
}

// bodyBuilder grows a structured CFG region by region.
type bodyBuilder struct {
	g   *gen
	f   *ir.Func
	cur *ir.Block
	hot bool
	// callNames are candidate callees for call regions.
	callNames   []string
	coldCallees []string
	ehOK        bool
	noSwitch    bool
}

// emitHotFunc generates one request-path function at the given call tier.
func (g *gen) emitHotFunc(m *ir.Module, name string, tier int) {
	f := m.NewFunc(name, 1)
	f.Linkage = ir.External
	entry := f.Entry()
	// Prologue: preserve callee-saved temps.
	for r := byte(rT0); r <= rT3; r++ {
		entry.Emit(ir.Inst{Op: isa.OpPush, A: r})
	}
	entry.Emit(ir.Inst{Op: isa.OpMovRR, A: rT0, B: rVal})

	var callees []string
	if tier+1 < len(g.hotNames) && len(g.hotNames[tier+1]) > 0 {
		next := g.hotNames[tier+1]
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			callees = append(callees, next[g.rng.Intn(len(next))])
		}
	}
	if len(g.leafNames) > 0 {
		callees = append(callees, g.leafNames[g.rng.Intn(len(g.leafNames))])
	}

	bb := &bodyBuilder{
		g: g, f: f, cur: entry, hot: true,
		callNames:   callees,
		coldCallees: g.coldNames,
		ehOK:        g.spec.EHFrac > 0 && g.rng.Float64() < g.spec.EHFrac,
		// The integrity-checked function stays free of indirect control
		// flow so rewriting tools confidently move it — which is exactly
		// when the self-check catches them.
		noSwitch: g.spec.Integrity && name == g.hotNames[0][0],
	}
	bb.grow(g.spec.AvgBlocks)
	// Epilogue.
	exit := bb.cur
	exit.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: rT0})
	for r := int(rT3); r >= rT0; r-- {
		exit.Emit(ir.Inst{Op: isa.OpPop, A: byte(r)})
	}
	exit.Return()
	g.totalBlocks += len(f.Blocks)
}

// emitColdFunc generates a never/rarely-executed function: same shape,
// no outgoing calls.
func (g *gen) emitColdFunc(m *ir.Module, name string) {
	f := m.NewFunc(name, 1)
	entry := f.Entry()
	for r := byte(rT0); r <= rT3; r++ {
		entry.Emit(ir.Inst{Op: isa.OpPush, A: r})
	}
	entry.Emit(ir.Inst{Op: isa.OpMovRR, A: rT0, B: rVal})
	bb := &bodyBuilder{g: g, f: f, cur: entry, hot: false}
	bb.grow(g.spec.AvgBlocks)
	exit := bb.cur
	exit.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: rT0})
	for r := int(rT3); r >= rT0; r-- {
		exit.Emit(ir.Inst{Op: isa.OpPop, A: byte(r)})
	}
	exit.Return()
	g.totalBlocks += len(f.Blocks)
}

// grow appends structured regions until roughly target blocks exist.
func (bb *bodyBuilder) grow(target int) {
	calls := append([]string(nil), bb.callNames...)
	for len(bb.f.Blocks) < target {
		switch k := bb.g.rng.Intn(10); {
		case k < 3:
			bb.diamond()
		case k < 5:
			bb.loop()
		case k < 6 && bb.hot:
			bb.coldDetour()
		case k < 7 && !bb.noSwitch && bb.g.rng.Float64() < bb.g.spec.SwitchFrac:
			bb.switchRegion()
		case k < 8 && bb.ehOK:
			bb.ehRegion()
			bb.ehOK = false // one landing pad per function
		case len(calls) > 0:
			bb.callRegion(calls[0])
			calls = calls[1:]
		default:
			bb.straight()
		}
	}
	for _, c := range calls {
		bb.callRegion(c)
	}
}

// newBlock allocates a block with room for a typical block's instructions:
// the builder's copy is garbage once Generate clones it, so each regrowth
// of a slice that starts empty would be spent for nothing.
func (bb *bodyBuilder) newBlock() *ir.Block {
	b := bb.f.NewBlock()
	b.Ins = make([]ir.Inst, 0, 4)
	return b
}

// straight adds a few arithmetic instructions to the current block.
func (bb *bodyBuilder) straight() {
	n := 2 + bb.g.rng.Intn(4)
	for i := 0; i < n; i++ {
		bb.cur.Emit(ir.Inst{Op: isa.OpAddI, A: rT0, Imm: int64(1 + bb.g.rng.Intn(17))})
	}
}

// diamond emits a biased two-way conditional.
func (bb *bodyBuilder) diamond() {
	g := bb.g
	mask := int64(1)<<uint(2+g.rng.Intn(5)) - 1 // 3..127
	k := int64(g.rng.Int63n(mask))              // bias point
	a := bb.newBlock()
	b := bb.newBlock()
	merge := bb.newBlock()

	bb.cur.Emit(ir.Inst{Op: isa.OpMovRR, A: rT1, B: rT0})
	bb.cur.Emit(ir.Inst{Op: isa.OpMovI, A: rT2, Imm: mask})
	bb.cur.Emit(ir.Inst{Op: isa.OpAnd, A: rT1, B: rT2})
	bb.cur.Emit(ir.Inst{Op: isa.OpCmpI, A: rT1, Imm: k})
	bb.cur.Branch(isa.CondLT, a, b)

	a.Emit(ir.Inst{Op: isa.OpAddI, A: rT0, Imm: int64(1 + g.rng.Intn(9))})
	a.Jump(merge)
	b.Emit(ir.Inst{Op: isa.OpMovI, A: rT1, Imm: int64(3 + g.rng.Intn(5))})
	b.Emit(ir.Inst{Op: isa.OpXor, A: rT0, B: rT1})
	b.Jump(merge)
	bb.cur = merge
}

// loop emits a short counted loop.
func (bb *bodyBuilder) loop() {
	g := bb.g
	trip := int64(2 + g.rng.Intn(5))
	body := bb.newBlock()
	after := bb.newBlock()
	bb.cur.Emit(ir.Inst{Op: isa.OpMovI, A: rT1, Imm: trip})
	bb.cur.Jump(body)
	body.Emit(ir.Inst{Op: isa.OpAddI, A: rT0, Imm: int64(1 + g.rng.Intn(5))})
	body.Emit(ir.Inst{Op: isa.OpAddI, A: rT1, Imm: -1})
	body.Emit(ir.Inst{Op: isa.OpCmpI, A: rT1, Imm: 0})
	body.Branch(isa.CondGT, body, after)
	bb.cur = after
}

// coldDetour emits an almost-never-taken branch to a bulky error path that
// calls a cold function — the splitting opportunity §4.6 exploits.
func (bb *bodyBuilder) coldDetour() {
	g := bb.g
	cold := bb.newBlock()
	after := bb.newBlock()
	bb.cur.Emit(ir.Inst{Op: isa.OpMovRR, A: rT1, B: rT0})
	bb.cur.Emit(ir.Inst{Op: isa.OpMovI, A: rT2, Imm: 1023})
	bb.cur.Emit(ir.Inst{Op: isa.OpAnd, A: rT1, B: rT2})
	bb.cur.Emit(ir.Inst{Op: isa.OpCmpI, A: rT1, Imm: 1023})
	bb.cur.Branch(isa.CondEQ, cold, after)

	// Bulky cold path.
	n := 6 + g.rng.Intn(10)
	for i := 0; i < n; i++ {
		cold.Emit(ir.Inst{Op: isa.OpAddI, A: rT0, Imm: int64(2 + g.rng.Intn(31))})
	}
	if len(bb.coldCallees) > 0 {
		callee := bb.coldCallees[g.rng.Intn(len(bb.coldCallees))]
		cold.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: rT0})
		cold.Emit(ir.Inst{Op: isa.OpCall, Sym: callee})
		cold.Emit(ir.Inst{Op: isa.OpMovRR, A: rT0, B: rVal})
	}
	cold.Jump(after)
	bb.cur = after
}

// switchRegion emits a masked jump-table dispatch.
func (bb *bodyBuilder) switchRegion() {
	g := bb.g
	n := 4
	if g.rng.Intn(2) == 0 {
		n = 8
	}
	var cases []*ir.Block
	for i := 0; i < n; i++ {
		cases = append(cases, bb.newBlock())
	}
	after := bb.newBlock()
	bb.cur.Emit(ir.Inst{Op: isa.OpMovRR, A: rT1, B: rT0})
	bb.cur.Emit(ir.Inst{Op: isa.OpMovI, A: rT2, Imm: int64(n - 1)})
	bb.cur.Emit(ir.Inst{Op: isa.OpAnd, A: rT1, B: rT2})
	bb.cur.Switch(rT1, cases...)
	for _, c := range cases {
		c.Emit(ir.Inst{Op: isa.OpAddI, A: rT0, Imm: int64(1 + g.rng.Intn(63))})
		c.Jump(after)
	}
	bb.cur = after
}

// ehRegion emits a call that may throw, covered by a landing pad.
func (bb *bodyBuilder) ehRegion() {
	pad := bb.newBlock()
	after := bb.newBlock()
	pad.LandingPad = true
	bb.f.HasEH = true
	bb.cur.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: rT0})
	bb.cur.Emit(ir.Inst{Op: isa.OpCall, Sym: "thrower_" + bb.g.spec.Name, Pad: pad})
	bb.cur.Emit(ir.Inst{Op: isa.OpMovRR, A: rT0, B: rVal})
	bb.cur.Jump(after)
	pad.Emit(ir.Inst{Op: isa.OpAddI, A: rT0, Imm: 501})
	pad.Jump(after)
	bb.cur = after
}

// callRegion emits r0 = callee(r0-derived value).
func (bb *bodyBuilder) callRegion(callee string) {
	bb.cur.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: rT0})
	bb.cur.Emit(ir.Inst{Op: isa.OpCall, Sym: callee})
	bb.cur.Emit(ir.Inst{Op: isa.OpAdd, A: rT0, B: rVal})
}
