package ir

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"propeller/internal/isa"
	"propeller/internal/wire"
)

// buildDiamond constructs:
//
//	entry -> (then | else) -> exit
func buildDiamond(t *testing.T) (*Module, *Func) {
	t.Helper()
	m := NewModule("m")
	f := m.NewFunc("diamond", 1)
	entry := f.Entry()
	then := f.NewBlock()
	els := f.NewBlock()
	exit := f.NewBlock()

	entry.Emit(Inst{Op: isa.OpCmpI, A: 0, Imm: 10})
	entry.Branch(isa.CondLT, then, els)
	then.Emit(Inst{Op: isa.OpAddI, A: 0, Imm: 1})
	then.Jump(exit)
	els.Emit(Inst{Op: isa.OpAddI, A: 0, Imm: 2})
	els.Jump(exit)
	exit.Return()

	if err := Verify(m); err != nil {
		t.Fatalf("diamond should verify: %v", err)
	}
	return m, f
}

func TestBuilderBasics(t *testing.T) {
	m, f := buildDiamond(t)
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(f.Blocks))
	}
	if f.Entry().ID != 0 {
		t.Errorf("entry ID = %d, want 0", f.Entry().ID)
	}
	ids := map[int]bool{}
	for _, b := range f.Blocks {
		if ids[b.ID] {
			t.Errorf("duplicate block ID %d", b.ID)
		}
		ids[b.ID] = true
	}
	if m.Func("diamond") != f {
		t.Error("Func lookup failed")
	}
	if m.Func("absent") != nil {
		t.Error("Func lookup of absent name should be nil")
	}
	if got := f.NumInsts(); got != 7 {
		t.Errorf("NumInsts = %d, want 7 (3 insts + 4 terminators)", got)
	}
}

func TestPreds(t *testing.T) {
	_, f := buildDiamond(t)
	exit := f.Blocks[3]
	preds := exit.Preds()
	if len(preds) != 2 {
		t.Fatalf("exit has %d preds, want 2", len(preds))
	}
	entryPreds := f.Entry().Preds()
	if len(entryPreds) != 0 {
		t.Errorf("entry has %d preds, want 0", len(entryPreds))
	}
}

func TestWeights(t *testing.T) {
	_, f := buildDiamond(t)
	entry := f.Entry()
	entry.Term.SetWeights(90, 10)
	if entry.Term.TotalWeight() != 100 {
		t.Errorf("TotalWeight = %d, want 100", entry.Term.TotalWeight())
	}
	if entry.Term.EdgeWeight(0) != 90 || entry.Term.EdgeWeight(1) != 10 {
		t.Error("EdgeWeight mismatch")
	}
	if entry.Term.EdgeWeight(5) != 0 {
		t.Error("out-of-range EdgeWeight should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetWeights with wrong arity should panic")
		}
	}()
	entry.Term.SetWeights(1)
}

func TestVerifyCatchesBadIR(t *testing.T) {
	check := func(name string, build func() *Module, wantSub string) {
		t.Run(name, func(t *testing.T) {
			err := Verify(build())
			if err == nil {
				t.Fatal("Verify accepted bad IR")
			}
			if !strings.Contains(err.Error(), wantSub) {
				t.Errorf("error %q does not mention %q", err, wantSub)
			}
		})
	}

	check("duplicate function", func() *Module {
		m := NewModule("m")
		f1 := m.NewFunc("f", 0)
		f1.Entry().Return()
		f2 := m.NewFunc("f", 0)
		f2.Entry().Return()
		return m
	}, "duplicate symbol")

	check("branch arity", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		b := f.NewBlock()
		b.Return()
		f.Entry().Term = Term{Kind: TermBranch, Succs: []*Block{b}}
		return m
	}, "successors")

	check("foreign successor", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		g := m.NewFunc("g", 0)
		g.Entry().Return()
		f.Entry().Jump(g.Entry())
		return m
	}, "not in function")

	check("terminator in body", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		f.Entry().Emit(Inst{Op: isa.OpJmp})
		f.Entry().Return()
		return m
	}, "terminator inside")

	check("call without callee", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		f.Entry().Emit(Inst{Op: isa.OpCall})
		f.Entry().Return()
		return m
	}, "without callee")

	check("landing pad on non-call", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		pad := f.NewBlock()
		pad.LandingPad = true
		pad.Return()
		f.Entry().Emit(Inst{Op: isa.OpAdd, Pad: pad})
		f.Entry().Return()
		return m
	}, "landing pad on non-call")

	check("pad target not marked", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		pad := f.NewBlock()
		pad.Return()
		f.Entry().Emit(Inst{Op: isa.OpCall, Sym: "g", Pad: pad})
		f.Entry().Return()
		return m
	}, "not marked LandingPad")

	check("entry is landing pad", func() *Module {
		m := NewModule("m")
		f := m.NewFunc("f", 0)
		f.Entry().LandingPad = true
		f.Entry().Return()
		return m
	}, "entry block is a landing pad")

	check("global initializer too long", func() *Module {
		m := NewModule("m")
		m.AddGlobal(&Global{Name: "g", Size: 2, Init: []byte{1, 2, 3}})
		return m
	}, "initializer longer")
}

func TestCloneIndependence(t *testing.T) {
	_, f := buildDiamond(t)
	f.EntryCount = 42
	clone := CloneFunc(f)
	if err := VerifyFunc(clone); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	if clone.EntryCount != 42 || clone.Name != f.Name {
		t.Error("clone lost metadata")
	}
	// Mutating the clone must not affect the original.
	clone.Entry().Ins[0].Imm = 999
	clone.Entry().Term.Succs[0] = clone.Blocks[3]
	if f.Entry().Ins[0].Imm == 999 {
		t.Error("instruction mutation leaked to original")
	}
	if f.Entry().Term.Succs[0] == f.Blocks[3] {
		t.Error("successor mutation leaked to original")
	}
	// All clone successors must point into the clone.
	for _, b := range clone.Blocks {
		if b.Fn != clone {
			t.Error("clone block owned by original")
		}
		for _, s := range b.Term.Succs {
			if s.Fn != clone {
				t.Error("clone successor points at original function")
			}
		}
	}
}

func TestClonePreservesLandingPads(t *testing.T) {
	m := NewModule("m")
	f := m.NewFunc("f", 0)
	pad := f.NewBlock()
	pad.LandingPad = true
	pad.Return()
	f.Entry().Emit(Inst{Op: isa.OpCall, Sym: "g", Pad: pad})
	f.Entry().Return()
	f.HasEH = true
	if err := VerifyFunc(f); err != nil {
		t.Fatal(err)
	}
	clone := CloneFunc(f)
	if err := VerifyFunc(clone); err != nil {
		t.Fatal(err)
	}
	got := clone.Entry().Ins[0].Pad
	if got == nil || got.Fn != clone || !got.LandingPad {
		t.Error("clone landing pad not remapped into clone")
	}
}

func randModule(rng *rand.Rand) *Module {
	m := NewModule("rand")
	nGlob := rng.Intn(4)
	for i := 0; i < nGlob; i++ {
		init := make([]byte, rng.Intn(16))
		rng.Read(init)
		m.AddGlobal(&Global{
			Name:     "g" + string(rune('a'+i)),
			Size:     int64(len(init) + rng.Intn(8)),
			Init:     init,
			ReadOnly: rng.Intn(2) == 0,
		})
	}
	nFuncs := 1 + rng.Intn(4)
	for fi := 0; fi < nFuncs; fi++ {
		f := m.NewFunc("f"+string(rune('a'+fi)), rng.Intn(4))
		f.EntryCount = uint64(rng.Intn(1000))
		nBlocks := 1 + rng.Intn(6)
		for len(f.Blocks) < nBlocks {
			f.NewBlock()
		}
		for bi, b := range f.Blocks {
			b.Count = uint64(rng.Intn(500))
			nIns := rng.Intn(5)
			for i := 0; i < nIns; i++ {
				ops := []isa.Op{isa.OpAdd, isa.OpMovI, isa.OpCmpI, isa.OpLoad, isa.OpStore}
				b.Emit(Inst{
					Op:  ops[rng.Intn(len(ops))],
					A:   byte(rng.Intn(isa.NumRegs)),
					B:   byte(rng.Intn(isa.NumRegs)),
					Imm: int64(rng.Int31()) - 1<<30,
				})
			}
			pick := func() *Block { return f.Blocks[rng.Intn(len(f.Blocks))] }
			switch rng.Intn(4) {
			case 0:
				b.Jump(pick())
			case 1:
				b.Branch(isa.Cond(rng.Intn(int(isa.NumConds))), pick(), pick())
				b.Term.SetWeights(uint64(rng.Intn(100)), uint64(rng.Intn(100)))
			case 2:
				b.Switch(byte(rng.Intn(isa.NumRegs)), pick(), pick(), pick())
			default:
				if bi == 0 {
					b.Halt()
				} else {
					b.Return()
				}
			}
		}
	}
	return m
}

func modulesEqual(a, b *Module) bool {
	return a.String() == b.String() &&
		len(a.Funcs) == len(b.Funcs) && len(a.Globals) == len(b.Globals)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := randModule(rng)
		data := EncodeModule(m)
		got, err := DecodeModule(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !modulesEqual(m, got) {
			t.Fatalf("trial %d: round trip mismatch:\n-- want --\n%s\n-- got --\n%s", trial, m, got)
		}
		if err := Verify(got); err != nil {
			t.Fatalf("trial %d: decoded module does not verify: %v", trial, err)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randModule(rng)
	if !bytes.Equal(EncodeModule(m), EncodeModule(m)) {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeModule([]byte("NOPE")); err == nil {
		t.Error("decoded garbage magic")
	}
	if _, err := DecodeModule(nil); err == nil {
		t.Error("decoded empty input")
	}
	m, f := buildDiamond(t)
	_ = f
	data := EncodeModule(m)
	for cut := 5; cut < len(data); cut += 7 {
		if _, err := DecodeModule(data[:cut]); err == nil {
			t.Errorf("decoded truncated input of %d bytes", cut)
		}
	}
}

// hostileHeader is a module "m" with no globals and one function "f" that
// declares 1<<24 blocks and then ends: 20 bytes that used to cost 16.7 M
// allocated blocks before the first read past the end failed.
func hostileHeader() []byte { return blocksHeader(1<<24, 0) }

// blocksHeader is a module "m" with no globals and one function "f" that
// declares blocks blocks and then ends in pad zero bytes. With pad at least
// blocks the count passes Reader.Count, and only the pools' check of what
// the remaining input could hold (nine bytes a block) stands between it and
// a slab of 120-byte Blocks per input byte.
func blocksHeader(blocks uint64, pad int) []byte {
	w := &wire.Writer{Buf: []byte(irMagic)}
	w.Str("m")
	w.Int(0)
	w.Int(1)
	w.Str("f")
	w.Str("")
	w.Byte(0) // linkage
	w.Int(0)  // params
	w.Byte(0) // flags
	w.U64(0)  // entry count
	w.Int(0)  // next block id
	w.U64(blocks)
	return append(w.Buf, make([]byte, pad)...)
}

// oneBlockModule encodes a module whose only function has one returning
// block, with the given parameter count and block id and the block's
// successor and weight lists as given.
func oneBlockModule(params, blockID uint64, succs, weights []uint64) []byte {
	w := &wire.Writer{Buf: []byte(irMagic)}
	w.Str("m")
	w.Int(0)
	w.Int(1)
	w.Str("f")
	w.Str("m")
	w.Byte(0)
	w.U64(params)
	w.Byte(0)
	w.U64(0)
	w.Int(1) // next block id
	w.Int(1) // blocks
	w.U64(blockID)
	w.Bool(false)
	w.U64(0)
	w.Int(0) // instructions
	w.Byte(byte(TermReturn))
	w.Byte(0)
	w.Byte(0)
	w.Int(len(succs))
	for _, s := range succs {
		w.U64(s)
	}
	w.Int(len(weights))
	for _, wt := range weights {
		w.U64(wt)
	}
	return w.Buf
}

// TestDecodeRejectsHostile: inputs a cache or a CLI can be handed must
// fail cleanly — no panic, no allocation beyond the input's own scale, no
// int that wrapped negative and would re-encode to the same bytes.
func TestDecodeRejectsHostile(t *testing.T) {
	valid := oneBlockModule(0, 0, nil, nil)
	if _, err := DecodeModule(valid); err != nil {
		t.Fatalf("the well-formed variant of the hostile rows does not decode: %v", err)
	}
	if len(hostileHeader()) != 20 {
		t.Fatalf("hostile header is %d bytes, want 20", len(hostileHeader()))
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"1<<24 blocks declared in a 20-byte header", hostileHeader()},
		{"block id 2^63", oneBlockModule(0, 1<<63, nil, nil)},
		{"parameter count 2^63", oneBlockModule(1<<63, 0, nil, nil)},
		{"successor index out of range", oneBlockModule(0, 0, []uint64{1}, nil)},
		{"more weights than successors", oneBlockModule(0, 0, []uint64{0}, []uint64{1, 2})},
		{"trailing byte", append(append([]byte(nil), valid...), 0x00)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := DecodeModule(tc.data)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: allocated %d bytes, want < 1 MB", tc.name, n)
		}
		if elapsed >= 50*time.Millisecond {
			t.Errorf("%s: took %v, want < 50ms", tc.name, elapsed)
		}
	}
}

// allocatedBy returns the heap bytes fn allocated (garbage included).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeModule: IR modules reach DecodeModule from the IR cache and
// from files handed to wsc-cc and wsc-propeller -ir-dir. It must never
// panic, whatever it accepts must re-encode to a fixed point, and one
// decode — accepted or not, hostile counts in any position — allocates at
// most decodeAllocFactor bytes per input byte plus a constant: the slabs
// and chunk pools are sized by what the remaining input could hold, never
// by what a header claims.
func FuzzDecodeModule(f *testing.F) {
	f.Add(EncodeModule(randModule(rand.New(rand.NewSource(7)))))
	f.Add([]byte(irMagic))
	f.Add(hostileHeader())
	f.Add(blocksHeader(8000, 8000))
	f.Add(oneBlockModule(0, 1<<63, nil, nil))
	f.Add(oneBlockModule(0, 0, []uint64{0}, []uint64{5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *Module
		var err error
		// The costliest input bytes are a call to a two-byte callee never
		// seen before: a 40-byte Inst in a chunk that may be abandoned half
		// used, and a symbol-table entry in a map that grows by doubling.
		const decodeAllocFactor, decodeAllocSlack = 48, 1 << 16
		if n := allocatedBy(func() { m, err = DecodeModule(data) }); n > decodeAllocFactor*uint64(len(data))+decodeAllocSlack {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		enc := EncodeModule(m)
		again, err := DecodeModule(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, EncodeModule(again)) {
			t.Fatal("encoding is not a fixed point over accepted inputs")
		}
	})
}

// wideModule builds funcs functions of blocks blocks of ins calls each, the
// callees drawn from a module-wide set of 16 names, every block weighted.
func wideModule(funcs, blocks, ins int) *Module {
	m := NewModule("wide")
	for fi := 0; fi < funcs; fi++ {
		f := m.NewFunc(fmt.Sprintf("fn_%d", fi), 2)
		for len(f.Blocks) < blocks {
			f.NewBlock()
		}
		for bi, b := range f.Blocks {
			for i := 0; i < ins; i++ {
				b.Emit(Inst{Op: isa.OpCall, Imm: int64(i) - 7, Sym: fmt.Sprintf("callee_%d", (fi+i)%16)})
			}
			if bi+1 < blocks {
				b.Branch(isa.CondLT, f.Blocks[bi+1], f.Blocks[0])
				b.Term.SetWeights(uint64(bi), 1)
			} else {
				b.Return()
			}
		}
	}
	return m
}

// TestEncodeModuleAllocs pins the encoder's allocation shape: the result,
// copied once at its exact size out of wire.Encode's pooled scratch buffer,
// and nothing per function, block, instruction, operand or string. The
// bound leaves room for the scratch buffer to regrow by doubling, which it
// does after a collection empties the pool and, under -race, whenever
// sync.Pool drops a Put. (It was a map[*Block]int per function plus the
// buffer's growth before the IR had a block numbering, and through an
// io.Writer every field escaped: 5.6 M allocations to encode Superroot's
// 6 MB.)
func TestEncodeModuleAllocs(t *testing.T) {
	for _, shape := range [][3]int{{20, 8, 30}, {200, 40, 30}} {
		m := wideModule(shape[0], shape[1], shape[2])
		enc := EncodeModule(m)
		if len(enc) != cap(enc) || len(enc) != EncodedSize(m) {
			t.Errorf("EncodeModule: %d bytes in a %d-byte buffer, EncodedSize %d", len(enc), cap(enc), EncodedSize(m))
		}
		got := testing.AllocsPerRun(10, func() { EncodeModule(m) })
		if limit := float64(2 + bits.Len(uint(len(enc)))); got > limit {
			t.Errorf("EncodeModule of %d funcs x %d blocks x %d instructions: %.0f allocations, want <= %.0f", shape[0], shape[1], shape[2], got, limit)
		}
	}
}

// TestVerifyAllocs: Verify recycles its name set, so verifying a module
// allocates nothing once the set is warm (it was a fresh map per module,
// about 8 k allocations per Superroot optimize op). Skipped under -race,
// where sync.Pool drops a share of what is put back.
func TestVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	for _, shape := range [][3]int{{20, 8, 30}, {200, 40, 30}} {
		m := wideModule(shape[0], shape[1], shape[2])
		if err := Verify(m); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() { Verify(m) }); got != 0 {
			t.Errorf("Verify of %d funcs x %d blocks: %.0f allocations, want 0", shape[0], shape[1], got)
		}
	}
}

func TestRoundTripEncodePreservesPads(t *testing.T) {
	m := NewModule("m")
	f := m.NewFunc("f", 0)
	pad := f.NewBlock()
	pad.LandingPad = true
	pad.Return()
	f.Entry().Emit(Inst{Op: isa.OpCall, Sym: "callee", Pad: pad})
	f.Entry().Return()
	f.HasEH = true

	got, err := DecodeModule(EncodeModule(m))
	if err != nil {
		t.Fatal(err)
	}
	gf := got.Func("f")
	if gf == nil || !gf.HasEH {
		t.Fatal("function or HasEH lost")
	}
	gotPad := gf.Entry().Ins[0].Pad
	if gotPad == nil || !gotPad.LandingPad {
		t.Fatal("landing pad reference lost in serialization")
	}
}

func TestPrintedFormStable(t *testing.T) {
	m, _ := buildDiamond(t)
	s := m.String()
	for _, want := range []string{"module m", "func diamond(1)", "bb0:", "branch.lt -> bb1, bb2", "return"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed module missing %q:\n%s", want, s)
		}
	}
}
