package sim

import (
	"strings"
	"testing"

	"propeller/internal/codegen"
	"propeller/internal/heatmap"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/testprog"
)

func build(t *testing.T, m *ir.Module, hugePages bool) *objfile.Binary {
	t.Helper()
	obj, err := codegen.Compile(m, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := linker.Link([]*objfile.Object{obj}, linker.Config{HugePages: hugePages})
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestExitViaHalt(t *testing.T) {
	bin := build(t, testprog.SumLoop(10), false)
	mach, err := Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 55 {
		t.Errorf("exit = %d", res.Exit)
	}
	if res.Insts == 0 || res.Cycles < res.Insts {
		t.Errorf("insts=%d cycles=%d", res.Insts, res.Cycles)
	}
}

func TestInstructionBudget(t *testing.T) {
	bin := build(t, testprog.SumLoop(1_000_000), false)
	mach, _ := Load(bin)
	_, err := mach.Run(Config{MaxInsts: 1000})
	re, ok := err.(*RunError)
	if !ok {
		t.Fatalf("want RunError, got %v", err)
	}
	if !strings.Contains(re.Msg, "budget") {
		t.Errorf("unexpected message %q", re.Msg)
	}
}

func TestDivByZeroFaults(t *testing.T) {
	m := ir.NewModule("div0")
	f := m.NewFunc("main", 0)
	e := f.Entry()
	e.Emit(ir.Inst{Op: isa.OpMovI, A: 0, Imm: 1})
	e.Emit(ir.Inst{Op: isa.OpMovI, A: 1, Imm: 0})
	e.Emit(ir.Inst{Op: isa.OpDiv, A: 0, B: 1})
	e.Halt()
	mach, _ := Load(build(t, m, false))
	_, err := mach.Run(Config{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestUnmappedLoadFaults(t *testing.T) {
	m := ir.NewModule("wild")
	f := m.NewFunc("main", 0)
	e := f.Entry()
	e.Emit(ir.Inst{Op: isa.OpMovI64, A: 1, Imm: 0x10})
	e.Emit(ir.Inst{Op: isa.OpLoad, A: 1, B: 0})
	e.Halt()
	mach, _ := Load(build(t, m, false))
	_, err := mach.Run(Config{})
	if err == nil || !strings.Contains(err.Error(), "unmapped") {
		t.Errorf("err = %v", err)
	}
}

func TestStoreToRodataFaults(t *testing.T) {
	m := ir.NewModule("ro")
	m.AddGlobal(&ir.Global{Name: "k", Size: 8, ReadOnly: true})
	f := m.NewFunc("main", 0)
	e := f.Entry()
	e.Emit(ir.Inst{Op: isa.OpMovI64, A: 1, Sym: "k"})
	e.Emit(ir.Inst{Op: isa.OpStore, A: 1, B: 0})
	e.Halt()
	mach, _ := Load(build(t, m, false))
	_, err := mach.Run(Config{})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("err = %v", err)
	}
}

func TestUncaughtThrowFaults(t *testing.T) {
	m := ir.NewModule("boom")
	f := m.NewFunc("main", 0)
	f.Entry().Throw()
	mach, _ := Load(build(t, m, false))
	_, err := mach.Run(Config{})
	if err == nil || !strings.Contains(err.Error(), "uncaught exception") {
		t.Errorf("err = %v", err)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	// Infinite recursion.
	m := ir.NewModule("rec")
	f := m.NewFunc("main", 0)
	f.Entry().Emit(ir.Inst{Op: isa.OpCall, Sym: "main"})
	f.Entry().Halt()
	mach, _ := Load(build(t, m, false))
	_, err := mach.Run(Config{MaxInsts: 10_000_000})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v", err)
	}
}

func TestHugePagesReduceITLBMisses(t *testing.T) {
	// A program whose hot loop strides across many pages of code: call a
	// long chain of functions so fetches touch a wide address range.
	m := ir.NewModule("wide")
	const chain = 64
	for i := chain - 1; i >= 0; i-- {
		name := fname(i)
		f := m.NewFunc(name, 1)
		e := f.Entry()
		for j := 0; j < 120; j++ {
			e.Emit(ir.Inst{Op: isa.OpAddI, A: 0, Imm: 1})
		}
		if i+1 < chain {
			e.Emit(ir.Inst{Op: isa.OpCall, Sym: fname(i + 1)})
		}
		e.Return()
	}
	main := m.NewFunc("main", 0)
	e := main.Entry()
	loop := main.NewBlock()
	done := main.NewBlock()
	e.Emit(ir.Inst{Op: isa.OpMovI, A: 8, Imm: 0})
	e.Jump(loop)
	loop.Emit(ir.Inst{Op: isa.OpCall, Sym: fname(0)})
	loop.Emit(ir.Inst{Op: isa.OpAddI, A: 8, Imm: 1})
	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: 8, Imm: 200})
	loop.Branch(isa.CondLT, loop, done)
	done.Halt()

	run := func(huge bool) Counters {
		mach, err := Load(build(t, ir.CloneModule(m), huge))
		if err != nil {
			t.Fatal(err)
		}
		res, err := mach.Run(Config{MaxInsts: 50_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	small := run(false)
	huge := run(true)
	if huge.ITLBMiss >= small.ITLBMiss {
		t.Errorf("hugepages did not reduce iTLB misses: %d vs %d", huge.ITLBMiss, small.ITLBMiss)
	}
}

func TestLBRDepthAndOrdering(t *testing.T) {
	var ring lbrRing
	for i := 0; i < 100; i++ {
		ring.push(uint64(i), uint64(i+1000))
	}
	recs := make([]profile.Branch, ring.count())
	ring.snapshotInto(recs)
	if len(recs) != 32 {
		t.Fatalf("snapshot has %d records, want 32", len(recs))
	}
	// Oldest-first: records 68..99.
	for i, r := range recs {
		if r.From != uint64(68+i) {
			t.Fatalf("record %d From = %d, want %d", i, r.From, 68+i)
		}
	}
	// Partial ring.
	var small lbrRing
	small.push(7, 8)
	small.push(9, 10)
	recs = make([]profile.Branch, small.count())
	small.snapshotInto(recs)
	if len(recs) != 2 || recs[0].From != 7 || recs[1].From != 9 {
		t.Errorf("partial snapshot wrong: %+v", recs)
	}
}

func TestHeatmapRecordsFetches(t *testing.T) {
	bin := build(t, testprog.SumLoop(1000), false)
	rec := heatmap.NewRecorder(bin.TextBase, int64(len(bin.Text)), 8, 8, 10000)
	mach, _ := Load(bin)
	if _, err := mach.Run(Config{Heatmap: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.TouchedRows() == 0 {
		t.Error("heatmap saw no fetches")
	}
}

func TestDeterministicCounters(t *testing.T) {
	bin := build(t, testprog.Fib(14), false)
	run := func() *Result {
		mach, _ := Load(bin)
		res, err := mach.Run(Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Counters != b.Counters {
		t.Error("simulation is not deterministic")
	}
}

func TestLoadRejectsBadEntry(t *testing.T) {
	bin := build(t, testprog.SumLoop(1), false)
	bad := bin.Clone()
	bad.Entry = 0x10
	if _, err := Load(bad); err == nil {
		t.Error("entry outside text accepted")
	}
	bad2 := bin.Clone()
	bad2.LSDA = []byte{1, 2, 3}
	if _, err := Load(bad2); err == nil {
		t.Error("ragged LSDA accepted")
	}
	bad3 := bin.Clone()
	bad3.TextBase = -uint64(len(bad3.Text)) - 8
	bad3.Entry = bad3.TextBase
	if _, err := Load(bad3); err == nil {
		t.Error("text at the very end of the address space accepted")
	}
}

func fname(i int) string {
	return "link" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
