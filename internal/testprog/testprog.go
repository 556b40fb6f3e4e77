// Package testprog builds small, semantically known IR programs used as
// fixtures by the codegen, linker, simulator, and pipeline tests. Each
// constructor documents the value the program leaves in r0 at halt.
package testprog

import (
	"propeller/internal/ir"
	"propeller/internal/isa"
)

// Registers the fixtures use freely (r12/r13 are reserved by codegen).
const (
	rA = 0
	rB = 1
	rC = 2
	rD = 3
	rE = 4
)

// SumLoop returns a module whose main computes sum(1..n) with a loop and
// halts with the result in r0. n is baked in as an immediate.
func SumLoop(n int64) *ir.Module {
	m := ir.NewModule("sumloop")
	f := m.NewFunc("main", 0)
	entry := f.Entry()
	loop := f.NewBlock()
	done := f.NewBlock()

	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: 0}) // acc
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rB, Imm: 1}) // i
	entry.Jump(loop)

	loop.Emit(ir.Inst{Op: isa.OpAdd, A: rA, B: rB})
	loop.Emit(ir.Inst{Op: isa.OpAddI, A: rB, Imm: 1})
	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: rB, Imm: n})
	loop.Branch(isa.CondLE, loop, done)

	done.Halt()
	return m
}

// Fib returns a module computing fib(n) recursively; main halts with
// fib(n) in r0. fib(0)=0, fib(1)=1.
func Fib(n int64) *ir.Module {
	m := ir.NewModule("fib")

	fib := m.NewFunc("fib", 1)
	entry := fib.Entry()
	rec := fib.NewBlock()
	base := fib.NewBlock()

	entry.Emit(ir.Inst{Op: isa.OpCmpI, A: rA, Imm: 2})
	entry.Branch(isa.CondLT, base, rec)

	base.Return() // r0 = n already, fib(0)=0, fib(1)=1

	// rec: return fib(n-1) + fib(n-2)
	rec.Emit(ir.Inst{Op: isa.OpPush, A: rB})
	rec.Emit(ir.Inst{Op: isa.OpPush, A: rC})
	rec.Emit(ir.Inst{Op: isa.OpMovRR, A: rC, B: rA})  // save n
	rec.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: -1}) // n-1
	rec.Emit(ir.Inst{Op: isa.OpCall, Sym: "fib"})     // r0 = fib(n-1)
	rec.Emit(ir.Inst{Op: isa.OpMovRR, A: rB, B: rA})  // stash
	rec.Emit(ir.Inst{Op: isa.OpMovRR, A: rA, B: rC})  // restore n
	rec.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: -2}) // n-2
	rec.Emit(ir.Inst{Op: isa.OpCall, Sym: "fib"})     // r0 = fib(n-2)
	rec.Emit(ir.Inst{Op: isa.OpAdd, A: rA, B: rB})    // sum
	rec.Emit(ir.Inst{Op: isa.OpPop, A: rC})
	rec.Emit(ir.Inst{Op: isa.OpPop, A: rB})
	rec.Return()

	main := m.NewFunc("main", 0)
	me := main.Entry()
	me.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: n})
	me.Emit(ir.Inst{Op: isa.OpCall, Sym: "fib"})
	me.Halt()
	return m
}

// Switch returns a module whose main iterates i = 0..n-1 and dispatches
// i%4 through a jump table; each case adds a distinct constant. The halt
// value is sum over i of (10,20,30,40)[i%4].
func Switch(n int64) *ir.Module {
	m := ir.NewModule("switch")
	f := m.NewFunc("main", 0)
	entry := f.Entry()
	loop := f.NewBlock()
	c0 := f.NewBlock()
	c1 := f.NewBlock()
	c2 := f.NewBlock()
	c3 := f.NewBlock()
	latch := f.NewBlock()
	done := f.NewBlock()

	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: 0}) // acc
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rB, Imm: 0}) // i
	entry.Jump(loop)

	loop.Emit(ir.Inst{Op: isa.OpMovRR, A: rC, B: rB})
	loop.Emit(ir.Inst{Op: isa.OpMovI, A: rD, Imm: 4})
	loop.Emit(ir.Inst{Op: isa.OpMod, A: rC, B: rD})
	loop.Switch(rC, c0, c1, c2, c3)

	for i, blk := range []*ir.Block{c0, c1, c2, c3} {
		blk.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: int64(10 * (i + 1))})
		blk.Jump(latch)
	}

	latch.Emit(ir.Inst{Op: isa.OpAddI, A: rB, Imm: 1})
	latch.Emit(ir.Inst{Op: isa.OpCmpI, A: rB, Imm: n})
	latch.Branch(isa.CondLT, loop, done)

	done.Halt()
	return m
}

// Exceptions returns a module exercising throw/landing-pad unwinding.
// main calls risky(i) for i in 0..n-1; risky throws when i%3 == 0.
// The landing pad adds 1000, the normal path adds 1. Halt value:
// sum over i of (1000 if i%3==0 else 1).
func Exceptions(n int64) *ir.Module {
	m := ir.NewModule("eh")

	risky := m.NewFunc("risky", 1)
	re := risky.Entry()
	rt := risky.NewBlock()
	rr := risky.NewBlock()
	re.Emit(ir.Inst{Op: isa.OpMovI, A: rD, Imm: 3})
	re.Emit(ir.Inst{Op: isa.OpMod, A: rA, B: rD})
	re.Emit(ir.Inst{Op: isa.OpCmpI, A: rA, Imm: 0})
	re.Branch(isa.CondEQ, rt, rr)
	rt.Throw()
	rr.Return()

	main := m.NewFunc("main", 0)
	main.HasEH = true
	entry := main.Entry()
	loop := main.NewBlock()
	normal := main.NewBlock()
	pad := main.NewBlock()
	latch := main.NewBlock()
	done := main.NewBlock()
	pad.LandingPad = true

	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rB, Imm: 0}) // acc
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rC, Imm: 0}) // i
	entry.Jump(loop)

	loop.Emit(ir.Inst{Op: isa.OpMovRR, A: rA, B: rC})
	loop.Emit(ir.Inst{Op: isa.OpCall, Sym: "risky", Pad: pad})
	loop.Jump(normal)

	normal.Emit(ir.Inst{Op: isa.OpAddI, A: rB, Imm: 1})
	normal.Jump(latch)

	pad.Emit(ir.Inst{Op: isa.OpAddI, A: rB, Imm: 1000})
	pad.Jump(latch)

	latch.Emit(ir.Inst{Op: isa.OpAddI, A: rC, Imm: 1})
	latch.Emit(ir.Inst{Op: isa.OpCmpI, A: rC, Imm: n})
	latch.Branch(isa.CondLT, loop, done)

	done.Emit(ir.Inst{Op: isa.OpMovRR, A: rA, B: rB})
	done.Halt()
	return m
}

// Globals returns a module reading and writing global data. main stores
// 11, 22, 33 into a writable array, then sums it together with a constant
// from rodata (100). Halt value: 166.
func Globals() *ir.Module {
	m := ir.NewModule("globals")
	m.AddGlobal(&ir.Global{Name: "arr", Size: 24})
	ro := []byte{100, 0, 0, 0, 0, 0, 0, 0}
	m.AddGlobal(&ir.Global{Name: "hundred", Size: 8, Init: ro, ReadOnly: true})

	f := m.NewFunc("main", 0)
	e := f.Entry()
	e.Emit(ir.Inst{Op: isa.OpMovI64, A: rE, Sym: "arr"})
	for i, v := range []int64{11, 22, 33} {
		e.Emit(ir.Inst{Op: isa.OpMovI, A: rB, Imm: v})
		e.Emit(ir.Inst{Op: isa.OpStore, A: rE, B: rB, Imm: int64(8 * i)})
	}
	e.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: 0})
	for i := 0; i < 3; i++ {
		e.Emit(ir.Inst{Op: isa.OpLoad, A: rE, B: rB, Imm: int64(8 * i)})
		e.Emit(ir.Inst{Op: isa.OpAdd, A: rA, B: rB})
	}
	e.Emit(ir.Inst{Op: isa.OpMovI64, A: rE, Sym: "hundred"})
	e.Emit(ir.Inst{Op: isa.OpLoad, A: rE, B: rB, Imm: 0})
	e.Emit(ir.Inst{Op: isa.OpAdd, A: rA, B: rB})
	e.Halt()
	return m
}

// HotCold returns a module with a hot loop and a rarely-taken cold block,
// annotated with profile counts so splitting and layout passes act on it.
// main loops n times; every 64th iteration runs the cold block, which adds
// 100 (and is bulky); other iterations add 1.
// Halt value: n + 99*floor-ish count of cold visits — computed by the
// simulator; tests compare layouts against each other, not a constant.
func HotCold(n int64) *ir.Module {
	m := ir.NewModule("hotcold")
	f := m.NewFunc("main", 0)
	f.EntryCount = 1
	entry := f.Entry()
	loop := f.NewBlock()
	cold := f.NewBlock()
	latch := f.NewBlock()
	done := f.NewBlock()

	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: 0})
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rB, Imm: 0})
	entry.Jump(loop)

	loop.Emit(ir.Inst{Op: isa.OpMovRR, A: rC, B: rB})
	loop.Emit(ir.Inst{Op: isa.OpMovI, A: rD, Imm: 64})
	loop.Emit(ir.Inst{Op: isa.OpMod, A: rC, B: rD})
	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: rC, Imm: 63})
	loop.Branch(isa.CondEQ, cold, latch)

	// Bulky cold block.
	for i := 0; i < 12; i++ {
		cold.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: 8})
	}
	cold.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: 4})
	cold.Jump(latch)

	latch.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: 1})
	latch.Emit(ir.Inst{Op: isa.OpAddI, A: rB, Imm: 1})
	latch.Emit(ir.Inst{Op: isa.OpCmpI, A: rB, Imm: n})
	latch.Branch(isa.CondLT, loop, done)

	done.Halt()

	// Profile annotations: loop hot, cold block cold.
	entry.Count = 1
	loop.Count = uint64(n)
	cold.Count = 0
	latch.Count = uint64(n)
	loop.Term.SetWeights(0, uint64(n))
	latch.Term.SetWeights(uint64(n)-1, 1)
	return m
}

// Integrity returns a module with a FIPS-140-2 style startup self-check
// (§5.8 of the paper): the build bakes a snapshot of checked_fn's first 8
// code bytes into a data global; main compares the snapshot against the
// running code and halts with -99 on mismatch. On success it computes
// sum(1..n) via checked_fn and halts with that.
//
// Relinking re-resolves the snapshot so the check passes; binary rewriting
// that moves or reorders checked_fn breaks it — reproducing the paper's
// BOLT startup crashes mechanistically.
func Integrity(n int64) *ir.Module {
	m := ir.NewModule("integrity")
	m.AddGlobal(&ir.Global{Name: "fips_snapshot", Size: 16, CodeSnapshotOf: "checked_fn"})

	checked := m.NewFunc("checked_fn", 1)
	ce := checked.Entry()
	loop := checked.NewBlock()
	cold := checked.NewBlock()
	done := checked.NewBlock()
	ce.Emit(ir.Inst{Op: isa.OpMovRR, A: rC, B: rA}) // limit
	ce.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: 0})
	ce.Emit(ir.Inst{Op: isa.OpMovI, A: rB, Imm: 1})
	ce.Jump(loop)
	loop.Emit(ir.Inst{Op: isa.OpAdd, A: rA, B: rB})
	loop.Emit(ir.Inst{Op: isa.OpAddI, A: rB, Imm: 1})
	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: rB, Imm: 0})       // rB >= 1 always
	loop.Branch(isa.CondLT, cold, done)                     // never taken
	cold.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: 1 << 20}) // unreachable filler
	cold.Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: 1 << 20})
	cold.Jump(done)
	done.Emit(ir.Inst{Op: isa.OpCmp, A: rB, B: rC})
	done.Branch(isa.CondLE, loop, doneRet(checked))

	// main re-hashes checked_fn's running code with FNV-1a over 8-byte
	// words and compares against the link-time digest.
	main := m.NewFunc("main", 0)
	me := main.Entry()
	hloop := main.NewBlock()
	hbody := main.NewBlock()
	check := main.NewBlock()
	ok := main.NewBlock()
	bad := main.NewBlock()

	const (
		rHashExp = rB // expected hash
		rSize    = rC // code size
		rBase    = rD // code base address
		rHash    = 5
		rOff     = 6
		rTmp     = 7
		rWord    = 8
		rPrime   = 9
	)
	me.Emit(ir.Inst{Op: isa.OpMovI64, A: rE, Sym: "fips_snapshot"})
	me.Emit(ir.Inst{Op: isa.OpLoad, A: rE, B: rHashExp, Imm: 0})
	me.Emit(ir.Inst{Op: isa.OpLoad, A: rE, B: rSize, Imm: 8})
	me.Emit(ir.Inst{Op: isa.OpMovI64, A: rBase, Sym: "checked_fn"})
	me.Emit(ir.Inst{Op: isa.OpMovI64, A: rHash, Imm: fnvOffsetBasis})
	me.Emit(ir.Inst{Op: isa.OpMovI64, A: rPrime, Imm: fnvPrime})
	me.Emit(ir.Inst{Op: isa.OpMovI, A: rOff, Imm: 0})
	me.Jump(hloop)

	// while off+8 <= size
	hloop.Emit(ir.Inst{Op: isa.OpMovRR, A: rTmp, B: rOff})
	hloop.Emit(ir.Inst{Op: isa.OpAddI, A: rTmp, Imm: 8})
	hloop.Emit(ir.Inst{Op: isa.OpCmp, A: rTmp, B: rSize})
	hloop.Branch(isa.CondGT, check, hbody)

	hbody.Emit(ir.Inst{Op: isa.OpMovRR, A: rTmp, B: rBase})
	hbody.Emit(ir.Inst{Op: isa.OpAdd, A: rTmp, B: rOff})
	hbody.Emit(ir.Inst{Op: isa.OpLoad, A: rTmp, B: rWord, Imm: 0})
	hbody.Emit(ir.Inst{Op: isa.OpXor, A: rHash, B: rWord})
	hbody.Emit(ir.Inst{Op: isa.OpMul, A: rHash, B: rPrime})
	hbody.Emit(ir.Inst{Op: isa.OpAddI, A: rOff, Imm: 8})
	hbody.Jump(hloop)

	check.Emit(ir.Inst{Op: isa.OpCmp, A: rHash, B: rHashExp})
	check.Branch(isa.CondEQ, ok, bad)
	ok.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: n})
	ok.Emit(ir.Inst{Op: isa.OpCall, Sym: "checked_fn"})
	ok.Halt()
	bad.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: -99})
	bad.Halt()
	return m
}

// FNV constants mirrored from objfile (as the int64 bit patterns the IR
// immediate field carries); testprog deliberately depends only on ir/isa.
const (
	fnvOffsetBasis = int64(-3750763034362895579) // uint64(14695981039346656037)
	fnvPrime       = int64(1099511628211)
)

// doneRet adds a return block to a hand-built function and returns it.
func doneRet(f *ir.Func) *ir.Block {
	b := f.NewBlock()
	b.Return()
	return b
}

// CrossModule returns two modules: lib exports add3(x) = x+3 and a global;
// app's main computes add3(39) = 42.
func CrossModule() (lib, app *ir.Module) {
	lib = ir.NewModule("lib")
	add3 := lib.NewFunc("add3", 1)
	add3.Entry().Emit(ir.Inst{Op: isa.OpAddI, A: rA, Imm: 3})
	add3.Entry().Return()

	app = ir.NewModule("app")
	main := app.NewFunc("main", 0)
	e := main.Entry()
	e.Emit(ir.Inst{Op: isa.OpMovI, A: rA, Imm: 39})
	e.Emit(ir.Inst{Op: isa.OpCall, Sym: "add3"})
	e.Halt()
	return lib, app
}

// MultiModule returns the three-module program the pipeline tests share:
// HotCold(20000) as module "hotmod" (its main is the entry), then
// CrossModule's lib and app with app's main renamed app_entry so the entry
// symbols do not clash.
func MultiModule() []*ir.Module {
	lib, app := CrossModule()
	hot := HotCold(20000)
	hot.Name = "hotmod"
	app.Func("main").Name = "app_entry"
	return []*ir.Module{hot, lib, app}
}
