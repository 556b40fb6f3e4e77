package sim_test

// Differential tests: the simulator — both of its page-stepped loops,
// model for modeled, heat-map and trace runs and step for functional
// ones — against the reference interpreter in reference_test.go, compared
// on everything a run returns.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/codegen"
	"propeller/internal/core"
	"propeller/internal/heatmap"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/testprog"
	"propeller/internal/workload"
)

// outcome is everything observable about one run, in directly comparable
// form: profiles by their wire bytes, a fault by its three fields.
type outcome struct {
	Exit          int64
	Insts, Cycles uint64
	Counters      sim.Counters
	Profile       []byte // Result.Profile
	Streamed      []byte // the OnSample stream, reassembled
	Data          []byte
	LoadMisses    map[uint64]uint64
	Heat          *heatmap.Recorder
	Faulted       bool
	PC, Inst      uint64
	Msg           string
}

func (o outcome) String() string {
	return fmt.Sprintf("exit=%d insts=%d cycles=%d %+v profile=%dB streamed=%dB data=%dB loadMisses=%v fault=%v pc=%#x inst=%d %q",
		o.Exit, o.Insts, o.Cycles, o.Counters, len(o.Profile), len(o.Streamed), len(o.Data), o.LoadMisses, o.Faulted, o.PC, o.Inst, o.Msg)
}

// variant is one way of configuring a run.
type variant struct {
	name         string
	cfg          sim.Config
	stream, heat bool
}

func variants() []variant {
	vs := []variant{
		{name: "plain"},
		{name: "stream", cfg: sim.Config{LBRPeriod: 97, LBRPhase: 3}, stream: true},
		{name: "heatmap", heat: true},
		{name: "loadmisses", cfg: sim.Config{TrackLoadMisses: true}},
		{name: "keepmemory", cfg: sim.Config{KeepMemory: true}},
		{name: "functional", cfg: sim.Config{DisableUarch: true, LBRPeriod: 97, LBRPhase: 96}},
		{name: "functional-plain", cfg: sim.Config{DisableUarch: true}}, // the PGO training run
		{name: "functional-lbr-7+3", cfg: sim.Config{DisableUarch: true, LBRPeriod: 7, LBRPhase: 3}},
	}
	for _, period := range []uint64{1, 7, 97, 211} {
		for _, phase := range []uint64{0, 3, period - 1} {
			vs = append(vs, variant{
				name: fmt.Sprintf("lbr-%d+%d", period, phase),
				cfg:  sim.Config{LBRPeriod: period, LBRPhase: phase},
			})
		}
	}
	return vs
}

type runFunc func(sim.Config) (*sim.Result, error)

func observe(t testing.TB, run runFunc, bin *objfile.Binary, v variant, maxInsts uint64) outcome {
	t.Helper()
	cfg := v.cfg
	cfg.MaxInsts = maxInsts
	if cfg.StackSize == 0 {
		cfg.StackSize = 1 << 14 // keeps the thousands of short runs cheap
	}
	var o outcome
	if v.stream {
		streamed := &profile.Profile{Period: cfg.LBRPeriod}
		cfg.OnSample = func(s profile.Sample) error {
			recs := append([]profile.Branch(nil), s.Records...)
			streamed.Samples = append(streamed.Samples, profile.Sample{Records: recs})
			return nil
		}
		defer func() { o.Streamed = streamed.AppendWire(nil) }()
	}
	if v.heat {
		o.Heat = heatmap.NewRecorder(bin.TextBase, int64(len(bin.Text)), 16, 10, 50)
		cfg.Heatmap = o.Heat
	}
	res, err := run(cfg)
	if res == nil {
		t.Fatalf("nil result (err %v)", err)
	}
	o.Exit, o.Insts, o.Cycles, o.Counters = res.Exit, res.Insts, res.Cycles, res.Counters
	o.Data, o.LoadMisses = res.DataImage, res.LoadMisses
	if res.Profile != nil {
		o.Profile = res.Profile.AppendWire(nil)
	}
	if err != nil {
		var re *sim.RunError
		if !errors.As(err, &re) {
			t.Fatalf("error is not a RunError: %v", err)
		}
		o.Faulted, o.PC, o.Inst, o.Msg = true, re.PC, re.Inst, re.Msg
	}
	return o
}

// subject is one binary under test with both interpreters loaded.
type subject struct {
	name     string
	bin      *objfile.Binary
	run, ref runFunc
}

func load(t testing.TB, name string, bin *objfile.Binary) subject {
	t.Helper()
	p, err := sim.Load(bin)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := sim.ReferenceLoad(bin)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return subject{name: name, bin: bin, run: p.Run, ref: ref}
}

// programs is every testprog program, a data-in-code build, a huge-page
// build, and the tiny workload (data-in-code, exceptions, 60 functions).
func programs(t testing.TB) []subject {
	t.Helper()
	lib, app := testprog.CrossModule()
	tiny, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.BuildBaseline(tiny.Core, core.Options{Executor: buildsys.Workstation()})
	if err != nil {
		t.Fatal(err)
	}
	none, inCode, huge := codegen.Options{}, codegen.Options{DataInCode: true}, linker.Config{HugePages: true}
	build := func(cg codegen.Options, ld linker.Config, mods ...*ir.Module) *objfile.Binary {
		return sim.BuildModules(t, mods, cg, ld)
	}
	return []subject{
		load(t, "sumloop", build(none, linker.Config{}, testprog.SumLoop(60))),
		load(t, "fib", build(none, linker.Config{}, testprog.Fib(9))),
		load(t, "switch", build(none, linker.Config{}, testprog.Switch(40))),
		load(t, "switch-data-in-code", build(inCode, linker.Config{}, testprog.Switch(40))),
		load(t, "exceptions", build(none, linker.Config{}, testprog.Exceptions(15))),
		load(t, "globals", build(none, linker.Config{}, testprog.Globals())),
		load(t, "hotcold", build(none, linker.Config{}, testprog.HotCold(300))),
		load(t, "hotcold-hugepages", build(none, huge, testprog.HotCold(300))),
		load(t, "integrity", build(none, linker.Config{}, testprog.Integrity(40))),
		load(t, "crossmodule", build(none, linker.Config{}, lib, app)),
		load(t, "multimodule", build(none, linker.Config{}, testprog.MultiModule()...)),
		load(t, "tiny", base.Binary),
		load(t, "page-straddle", raw(pageStraddle())),
	}
}

// pageStraddle is a hand-assembled program whose loops cross the 4 KB page
// boundaries at +0x1000 and +0x2000 every way control can: the first loop
// calls into the next page and returns, executes an instruction split
// across the boundary, falls through out of it into the next page and
// branches back; the second falls through onto a boundary exactly and
// branches back across it. It exits with a sum of every counter.
func pageStraddle() []byte {
	text := make([]byte, 0x2040)
	for i := range text {
		text[i] = byte(isa.OpNop)
	}
	// at assembles insts from off and returns the offset after them; a
	// branch's Imm is given as its target offset.
	at := func(off int, insts ...isa.Inst) int {
		for _, in := range insts {
			size := len(isa.Encode(nil, in))
			if in.Op.IsBranch() || in.Op == isa.OpCall {
				in.Imm -= int64(off + size)
			}
			off += copy(text[off:], isa.Encode(nil, in))
		}
		return off
	}
	const (
		loop1  = 0xFF0  // addi 0xFF0, call 0xFF6, then an addi at 0xFFB..0x1000
		callee = 0x1100 // in the second page
		loop2  = 0x1FF4 // two addis end at 0x1FFF; the compare starts the third page
		exit   = 0x2020
	)
	addi := func(r byte, v int64) isa.Inst { return isa.Inst{Op: isa.OpAddI, A: r, Imm: v} }
	add := func(a, b byte) isa.Inst { return isa.Inst{Op: isa.OpAdd, A: a, B: b} }
	at(0, isa.Inst{Op: isa.OpMovI, A: 2, Imm: 50}, isa.Inst{Op: isa.OpJmp, Imm: loop1})
	if end := at(loop1, addi(0, 1), isa.Inst{Op: isa.OpCall, Imm: callee}, addi(3, 2)); end != 0x1001 {
		panic("page-straddle: the split instruction does not cross +0x1000")
	}
	at(0x1001, addi(2, -1), isa.Inst{Op: isa.OpCmpI, A: 2, Imm: 0}, isa.Inst{Op: isa.OpJne, Imm: loop1},
		isa.Inst{Op: isa.OpJmp, Imm: loop2})
	at(callee, addi(1, 3), isa.Inst{Op: isa.OpRet})
	if end := at(loop2, addi(4, 1), addi(5, 2)); end != 0x2000 {
		panic("page-straddle: the second loop does not fall through onto +0x2000")
	}
	at(0x2000, isa.Inst{Op: isa.OpCmpI, A: 4, Imm: 40}, isa.Inst{Op: isa.OpJlt, Imm: loop2}, isa.Inst{Op: isa.OpJmp, Imm: exit})
	at(exit, add(0, 1), add(0, 3), add(0, 4), add(0, 5), isa.Inst{Op: isa.OpHalt})
	return text
}

// Hand-assembled binaries: faults need control over exact addresses.
const (
	rawText   = objfile.DefaultTextBase
	rawRodata = uint64(0x500000)
	rawData   = uint64(0x600000)
)

func asm(insts ...isa.Inst) []byte {
	var text []byte
	for _, in := range insts {
		text = isa.Encode(text, in)
	}
	return text
}

func raw(text []byte) *objfile.Binary {
	return &objfile.Binary{
		Entry:    rawText,
		TextBase: rawText, Text: text,
		RodataBase: rawRodata, Rodata: make([]byte, 64),
		DataBase: rawData, Data: make([]byte, 32), BSSSize: 32,
	}
}

var (
	movi   = func(r byte, v int64) isa.Inst { return isa.Inst{Op: isa.OpMovI64, A: r, Imm: v} }
	halt   = isa.Inst{Op: isa.OpHalt}
	jmpr   = func(r byte) isa.Inst { return isa.Inst{Op: isa.OpJmpR, A: r} }
	load0  = func(base byte) isa.Inst { return isa.Inst{Op: isa.OpLoad, A: base, B: 0} }
	store0 = func(base byte) isa.Inst { return isa.Inst{Op: isa.OpStore, A: base, B: 0} }
)

// faults is one binary per way a run can end badly.
func faults(t testing.TB) []subject {
	t.Helper()
	var out []subject
	add := func(name string, text []byte) { out = append(out, load(t, name, raw(text))) }

	// Not a fault: movi64 immediates either side of what a 32-bit field holds.
	add("movi64-immediates", asm(movi(0, 0x1234_5678_9ABC_DEF0), movi(1, 1<<31), movi(2, -(1<<31)), movi(3, 1<<31-1), movi(4, -(1<<31)-1),
		isa.Inst{Op: isa.OpXor, A: 0, B: 1}, isa.Inst{Op: isa.OpXor, A: 0, B: 2}, isa.Inst{Op: isa.OpXor, A: 0, B: 3}, isa.Inst{Op: isa.OpXor, A: 0, B: 4}, halt))
	add("div-by-zero", asm(movi(0, 1), movi(1, 0), isa.Inst{Op: isa.OpDiv, A: 0, B: 1}, halt))
	add("mod-by-zero", asm(movi(0, 1), movi(1, 0), isa.Inst{Op: isa.OpMod, A: 0, B: 1}, halt))
	add("load-unmapped", asm(movi(1, 0x10), load0(1), halt))
	add("load-past-data", asm(movi(1, int64(rawData)+64-7), load0(1), halt))
	add("store-unmapped", asm(movi(1, 0x10), store0(1), halt))
	add("store-rodata", asm(movi(1, int64(rawRodata)), store0(1), halt))
	add("store-text", asm(movi(1, int64(rawText)), store0(1), halt))
	add("call-overflow", asm(isa.Inst{Op: isa.OpCall, Imm: -5}))
	add("push-overflow", asm(isa.Inst{Op: isa.OpPush, A: 0}, isa.Inst{Op: isa.OpJmpS, Imm: -4}))
	add("push-above-stack", asm(movi(isa.RegSP, int64(sim.StackTop)+64), isa.Inst{Op: isa.OpPush, A: 0}, halt))
	add("pop-above-stack", asm(isa.Inst{Op: isa.OpPop, A: 0}, halt))
	add("uncaught-throw", asm(isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpThrow}))
	add("throw-in-callee", asm(isa.Inst{Op: isa.OpCall, Imm: 1}, halt, isa.Inst{Op: isa.OpThrow}))
	add("jump-outside-text", asm(movi(1, 0x10), jmpr(1)))
	add("jump-to-text-end", asm(movi(1, int64(rawText)+12), jmpr(1)))
	add("fall-off-text", asm(isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}))
	// Not faults: a compare whose flags must outlive a store, a load, a
	// wide movi64 and a div (each executed out of line by the functional
	// loop) to steer the branch past the throw; and an entry function that
	// returns, after a call and return, and so ends the program.
	add("flags-across-rare", asm(movi(0, 5), isa.Inst{Op: isa.OpCmpI, A: 0, Imm: 4},
		movi(1, int64(rawData)), store0(1), load0(1), movi(3, 1<<40), movi(4, 3), isa.Inst{Op: isa.OpDiv, A: 0, B: 4},
		isa.Inst{Op: isa.OpJgtS, Imm: 1}, isa.Inst{Op: isa.OpThrow}, halt))
	add("ret-from-entry", asm(movi(0, 7), isa.Inst{Op: isa.OpCall, Imm: 1}, isa.Inst{Op: isa.OpRet},
		isa.Inst{Op: isa.OpAddI, A: 0, Imm: 1}, isa.Inst{Op: isa.OpRet}))
	// A call whose callee overwrites its return address with garbage.
	add("return-outside-text", asm(
		isa.Inst{Op: isa.OpCall, Imm: 1}, halt,
		movi(1, 0x10), isa.Inst{Op: isa.OpStore, A: isa.RegSP, B: 1}, isa.Inst{Op: isa.OpRet}))

	// Jumps into the middle of a 10-byte movi64 whose immediate bytes are
	// themselves code (addi r0, 5; halt; nop), are an invalid opcode, or
	// are the start of an instruction the text ends inside.
	hidden := int64(0)
	for i, b := range append(asm(isa.Inst{Op: isa.OpAddI, A: 0, Imm: 5}, halt), byte(isa.OpNop)) {
		hidden |= int64(b) << (8 * i)
	}
	mid := int64(rawText) + 10 + 2 + 2 // past movi64 r1, jmpr r1, and the opcode+reg of the second movi64
	add("jump-mid-inst-hidden-code", asm(movi(1, mid), jmpr(1), movi(2, hidden), halt))
	add("jump-mid-inst-invalid", asm(movi(1, mid), jmpr(1), movi(2, 0xEE), halt))
	add("jump-mid-inst-bad-register", asm(movi(1, mid), jmpr(1), movi(2, int64(isa.OpPush)|0x77<<8), halt))
	add("jump-to-truncated", append(asm(movi(1, int64(rawText)+12), jmpr(1)), byte(isa.OpMovI64), 3))

	// A jump table inside text: dispatching through it works, jumping into
	// it decodes address bytes. The table sits at +24, 8-aligned, after
	// movi64 (10) + load (7) + jmpr (2) + halt (1) + 4 nops; its one entry
	// points back at the halt, whose address's low byte (0x13) is the add
	// opcode — with register operand 0x00 and 0x20, which is out of range.
	table := int64(rawText) + 24
	entry := []byte{19, 0, 0x20, 0, 0, 0, 0, 0}
	nops := []byte{byte(isa.OpNop), byte(isa.OpNop), byte(isa.OpNop), byte(isa.OpNop)}
	add("jump-through-table", append(append(asm(movi(1, table), isa.Inst{Op: isa.OpLoad, A: 1, B: 2}, jmpr(2), halt), nops...), entry...))
	add("jump-into-table", append(append(asm(movi(1, table), isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, isa.Inst{Op: isa.OpNop}, jmpr(1), halt), nops...), entry...))
	return out
}

// TestPageStraddle holds pageStraddle to the path its comment describes:
// two instructions in, 50 trips of 8 through the first loop, one jump, 40
// trips of 4 through the second, one jump, and four adds and a halt.
func TestPageStraddle(t *testing.T) {
	p, err := sim.Load(raw(pageStraddle()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(sim.Config{DisableUarch: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(50 + 3*50 + 2*50 + 40 + 2*40); res.Exit != want || res.Insts != 2+50*8+1+40*4+1+5 {
		t.Errorf("exit %d after %d instructions, want %d after %d", res.Exit, res.Insts, want, 2+50*8+1+40*4+1+5)
	}
}

func compare(t *testing.T, s subject, v variant, maxInsts uint64) (faulted bool) {
	t.Helper()
	got := observe(t, s.run, s.bin, v, maxInsts)
	want := observe(t, s.ref, s.bin, v, maxInsts)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s/max=%d:\n got  %v\n want %v", s.name, v.name, maxInsts, got, want)
	}
	return got.Faulted
}

// TestMatchesReferenceFullRuns runs every program and every fault binary
// to its natural end in every configuration.
func TestMatchesReferenceFullRuns(t *testing.T) {
	vs := variants()
	for _, s := range programs(t) {
		for _, v := range vs {
			// A sample every instruction or seven is half a kilobyte per
			// instruction: those grids stop at 20k instructions.
			dense := v.cfg.LBRPeriod > 0 && v.cfg.LBRPeriod < 97
			if dense {
				compare(t, s, v, 20_000)
			} else if compare(t, s, v, 0) {
				t.Errorf("%s/%s: program faulted", s.name, v.name)
			}
		}
	}
	for _, s := range faults(t) {
		for _, v := range vs {
			faulted := compare(t, s, v, 0)
			ok := map[string]bool{"movi64-immediates": true, "flags-across-rare": true, "ret-from-entry": true,
				"jump-mid-inst-hidden-code": true, "jump-through-table": true}[s.name]
			if faulted == ok {
				t.Errorf("%s/%s: faulted = %v", s.name, v.name, faulted)
			}
		}
	}
}

// TestMatchesReferenceEveryBudget cuts runs short at every instruction
// count up to 300, so the budget lands mid-window, on a window's last
// instruction, on a taken branch and on a sample; a short run compares the
// partial counters and the fault. Four programs that between them execute
// every opcode take every budget in every configuration; the rest, and the
// fault binaries, take every budget plain and with a dense sample grid,
// modeled and functional, so each of the two interpreter loops meets every
// budget on every binary (their other configurations are held by the full
// runs above) — each run zeroes a fresh model and stack, and the full
// product is minutes of that.
func TestMatchesReferenceEveryBudget(t *testing.T) {
	limit := uint64(300)
	if testing.Short() {
		limit = 60
	}
	every := map[string]bool{"fib": true, "switch-data-in-code": true, "exceptions": true, "tiny": true}
	all := variants()
	var some []variant
	for _, v := range all {
		if v.name == "plain" || v.name == "lbr-7+3" || v.name == "functional-lbr-7+3" {
			some = append(some, v)
		}
	}
	for _, s := range append(programs(t), faults(t)...) {
		// Budgets past the run's natural end all give the same run.
		last := limit
		if res, _ := s.ref(sim.Config{}); res.Insts < last {
			last = res.Insts + 1
		}
		vs := some
		if every[s.name] {
			vs = all
		}
		for _, v := range vs {
			for max := uint64(1); max <= last; max++ {
				compare(t, s, v, max)
			}
			if t.Failed() {
				return
			}
		}
	}
}

// deepRecursion is a hand-assembled program that sums depth..1 by
// recursion: the entry's call takes 8 bytes of stack and each level 16
// more (its argument and its call's return address), so it needs 8+16*depth
// bytes.
func deepRecursion(depth int64) []byte {
	call := func(imm int) isa.Inst { return isa.Inst{Op: isa.OpCall, Imm: int64(imm)} }
	cmp, push := isa.Inst{Op: isa.OpCmpI, A: 0, Imm: 0}, isa.Inst{Op: isa.OpPush, A: 0}
	dec, ret := isa.Inst{Op: isa.OpAddI, A: 0, Imm: -1}, isa.Inst{Op: isa.OpRet}
	jeq := func(imm int) isa.Inst { return isa.Inst{Op: isa.OpJeqS, Imm: int64(imm)} }
	// f: if r0 == 0 return; push r0; r0--; call f; pop r1; r0 += r1; return.
	pre := len(asm(cmp, jeq(0), push, dec, call(0)))
	post := asm(isa.Inst{Op: isa.OpPop, A: 1}, isa.Inst{Op: isa.OpAdd, A: 0, B: 1}, ret)
	f := asm(cmp, jeq(pre+len(post)-len(asm(cmp, jeq(0)))), push, dec, call(-pre))
	f = append(append(f, post...), asm(ret)...)
	return append(asm(movi(0, depth), call(1), halt), f...)
}

// TestStackGrowsOnDemand holds the stack, which a run grows on demand in
// chunks up to its bound, to the reference's, which is all there from the
// start: at bounds above, at and below the first chunk, a recursion that
// fills the bound exactly (at the default bound it crosses the growth
// points at 64, 128, 256 and 512 KB), pushes and calls that need one word
// more than the bound, loads at the bound's end and just past it, and a
// load of stack nobody wrote, which reads 0 before and after a store grows
// the stack to it and leaves what the top held in place. Every run
// compares exit, instruction count, cycles, counters, profile and fault,
// modeled and functional.
func TestStackGrowsOnDemand(t *testing.T) {
	sizes := []uint64{sim.DefaultStackSize, 3<<16 + 8, 1<<16 + 8, 1 << 16, 1<<16 - 8, 4096, 100, 8}
	vs := []variant{
		{name: "plain"},
		{name: "functional", cfg: sim.Config{DisableUarch: true}},
		{name: "functional-lbr-211", cfg: sim.Config{DisableUarch: true, LBRPeriod: 211}},
	}
	for _, size := range sizes {
		limit := sim.StackTop - size
		deep := int64(limit)
		programs := []struct {
			name  string
			text  []byte
			fault string // "" when the program halts
			exit  int64
		}{
			{"recursion-fills-bound", deepRecursion(int64(size-8) / 16), "", int64((size-8)/16) * int64((size-8)/16+1) / 2},
			{"push-overflow", asm(isa.Inst{Op: isa.OpPush, A: 0}, isa.Inst{Op: isa.OpJmpS, Imm: -4}), "stack overflow", 0},
			{"call-overflow", asm(isa.Inst{Op: isa.OpCall, Imm: -5}), "stack overflow", 0},
			{"load-at-bound", asm(movi(1, deep), load0(1), halt), "", 0},
			{"load-past-bound", asm(movi(1, deep-1), load0(1), halt), "load from unmapped address", 0},
			{"never-written", asm(
				movi(1, int64(sim.StackTop)-8), movi(2, 7), isa.Inst{Op: isa.OpStore, A: 1, B: 2},
				movi(3, deep), isa.Inst{Op: isa.OpLoad, A: 3, B: 0}, // 0: never written
				isa.Inst{Op: isa.OpLoad, A: 1, B: 4}, isa.Inst{Op: isa.OpAdd, A: 0, B: 4}, // 7: kept through growth
				movi(5, 5), isa.Inst{Op: isa.OpStore, A: 3, B: 5},
				isa.Inst{Op: isa.OpLoad, A: 3, B: 6}, isa.Inst{Op: isa.OpAdd, A: 0, B: 6}, halt), "", 12},
		}
		for _, pr := range programs {
			if size == 8 && pr.name == "never-written" {
				continue // its two addresses are one word
			}
			sub := load(t, pr.name, raw(pr.text))
			for _, v := range vs {
				v.cfg.StackSize = size
				got := observe(t, sub.run, sub.bin, v, 0)
				want := observe(t, sub.ref, sub.bin, v, 0)
				name := fmt.Sprintf("%s/%s/stack=%d", pr.name, v.name, size)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n got  %v\n want %v", name, got, want)
				}
				if !strings.HasPrefix(got.Msg, pr.fault) || got.Faulted != (pr.fault != "") || (pr.fault == "" && got.Exit != pr.exit) {
					t.Errorf("%s: exit %d, fault %v %q; want exit %d, fault %q", name, got.Exit, got.Faulted, got.Msg, pr.exit, pr.fault)
				}
			}
		}
	}

	// Stack before data: a data segment inside the bound, below the first
	// chunk, stays shadowed by the stack there.
	inside := sim.StackTop - 1<<19
	bin := raw(asm(movi(1, int64(inside)), load0(1), halt))
	bin.DataBase, bin.Data = inside, []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sub := load(t, "data-inside-bound", bin)
	for _, v := range vs {
		v.cfg.StackSize = sim.DefaultStackSize
		got, want := observe(t, sub.run, sub.bin, v, 0), observe(t, sub.ref, sub.bin, v, 0)
		if !reflect.DeepEqual(got, want) || got.Exit != 0 {
			t.Errorf("data-inside-bound/%s:\n got  %v\n want %v", v.name, got, want)
		}
	}
}

// TestAddressWrapFaults is not differential — the reference panics here. An
// access whose 8 bytes would run past 2^64, or past the end of a segment, is
// a fault, never a wrapped bounds check and a slice panic: a BOLT-corrupted
// binary must surface as a RunError. Every access runs modeled and
// functional, since the functional loop checks its stack slots inline; a
// call's return-address push takes the push cases.
func TestAddressWrapFaults(t *testing.T) {
	const (
		stackSize = 4096
		textLen   = 10 + 7 + 1 + 10 // movi64, load or store, halt, padding (a call case is 22 bytes)
	)
	const (
		opLoad = iota
		opStore
		opPush
		opPop
		opCall
	)
	type access struct {
		op    int
		addr  uint64
		fault string // "" means the access succeeds
	}
	const unmappedLoad, unmappedStore = "load from unmapped address", "store to unmapped or read-only address"
	var cases []access
	for k := uint64(1); k <= 8; k++ {
		addr := -k // 2^64 - k
		cases = append(cases,
			access{opLoad, addr, unmappedLoad},
			access{opStore, addr, unmappedStore},
			access{opPush, addr, unmappedStore},
			access{opPop, addr, unmappedLoad})
	}
	for _, seg := range []struct {
		base, size uint64
		writable   bool
	}{
		{sim.StackTop - stackSize, stackSize, true},
		{rawData, 64, true}, // 32 initialized + 32 BSS
		{rawRodata, 64, false},
		{rawText, textLen, false},
	} {
		storeOK := ""
		if !seg.writable {
			storeOK = unmappedStore
		}
		last, first := seg.base+seg.size-8, seg.base
		cases = append(cases,
			access{opLoad, first, ""}, access{opLoad, last, ""},
			access{opLoad, first - 1, unmappedLoad}, access{opLoad, last + 1, unmappedLoad},
			access{opStore, first, storeOK}, access{opStore, last, storeOK},
			access{opStore, first - 1, unmappedStore}, access{opStore, last + 1, unmappedStore},
			access{opPop, last, ""}, access{opPop, last + 1, unmappedLoad})
	}
	// A push below the stack is an overflow before it is a store.
	cases = append(cases,
		access{opPush, sim.StackTop - 8, ""}, access{opPush, sim.StackTop - 7, unmappedStore},
		access{opPush, sim.StackTop - stackSize, ""}, access{opPush, sim.StackTop - stackSize - 1, "stack overflow"},
		access{opPush, rawData, "stack overflow"})
	for _, c := range cases {
		if c.op == opPush {
			cases = append(cases, access{opCall, c.addr, c.fault})
		}
	}

	for _, c := range cases {
		var text []byte
		switch c.op {
		case opLoad:
			text = asm(movi(1, int64(c.addr)), load0(1), halt)
		case opStore:
			text = asm(movi(1, int64(c.addr)), store0(1), halt)
		case opPush: // stores at sp-8
			text = asm(movi(isa.RegSP, int64(c.addr+8)), isa.Inst{Op: isa.OpPush, A: 0}, halt)
		case opPop:
			text = asm(movi(isa.RegSP, int64(c.addr)), isa.Inst{Op: isa.OpPop, A: 0}, halt)
		case opCall:
			// A call and return first, so that the shadow call stack has
			// room and the functional loop takes its inline call; then one
			// that pushes its return address at sp-8 and falls into the halt.
			text = asm(isa.Inst{Op: isa.OpCall, Imm: 16}, movi(isa.RegSP, int64(c.addr+8)), isa.Inst{Op: isa.OpCall}, halt, isa.Inst{Op: isa.OpRet})
		}
		p, err := sim.Load(raw(append(text, make([]byte, textLen-len(text))...)))
		if err != nil {
			t.Fatal(err)
		}
		for _, functional := range []bool{false, true} {
			_, err = p.Run(sim.Config{StackSize: stackSize, DisableUarch: functional})
			name := fmt.Sprintf("%s (functional %v)", [...]string{"load", "store", "push", "pop", "call"}[c.op], functional)
			var re *sim.RunError
			switch isFault := errors.As(err, &re); {
			case c.fault == "" && err != nil:
				t.Errorf("%s at %#x: %v, want success", name, c.addr, err)
			case c.fault != "" && (!isFault || !strings.HasPrefix(re.Msg, c.fault)):
				t.Errorf("%s at %#x: err = %v, want fault %q", name, c.addr, err, c.fault)
			}
		}
	}
}
