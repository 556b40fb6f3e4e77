package ir

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"propeller/internal/isa"
)

// Exported to the external tests (package ir_test), which may import
// workload and so hold the codec to its reference over the catalog.
var (
	RefDecodeModule = refDecodeModule
	RefEncodeModule = refEncodeModule
	PlainModule     = plainModule
)

// plainBlock and plainFunc spell a function without pointers or the block
// numbering: block references become positions in Blocks, empty slices nil.
type plainBlock struct {
	ID         int
	LandingPad bool
	Count      uint64
	Ins        []Inst // Pad cleared; Pads holds the positions
	Pads       []int
	Kind       TermKind
	Cond       isa.Cond
	Index      byte
	Succs      []int
	Weights    []uint64
}

type plainFunc struct {
	Name, Module string
	Linkage      Linkage
	NumParams    int
	HasEH        bool
	Imported     bool
	EntryCount   uint64
	NextBlockID  int
	Blocks       []plainBlock
}

// plainModule is what two decoders must agree on: every field of every
// function and global, and for each block that it sits at the position its
// owner lists it under (Fn and, where the decoder numbers, Index).
func plainModule(t testing.TB, m *Module) any {
	t.Helper()
	type plain struct {
		Name    string
		Globals []Global
		Funcs   []plainFunc
	}
	out := plain{Name: m.Name}
	for _, g := range m.Globals {
		pg := *g
		if len(pg.Init) == 0 {
			pg.Init = nil
		}
		if len(pg.FuncPtrs) == 0 {
			pg.FuncPtrs = nil
		}
		out.Globals = append(out.Globals, pg)
	}
	for _, f := range m.Funcs {
		pos := make(map[*Block]int, len(f.Blocks))
		for i, b := range f.Blocks {
			if b.Fn != f {
				t.Fatalf("%s: block at %d owned by another function", f.Name, i)
			}
			pos[b] = i
		}
		at := func(b *Block) int {
			i, ok := pos[b]
			if !ok {
				t.Fatalf("%s: reference to a block outside the function", f.Name)
			}
			return i
		}
		pf := plainFunc{f.Name, f.Module, f.Linkage, f.NumParams, f.HasEH, f.Imported, f.EntryCount, f.nextBlockID, nil}
		for _, b := range f.Blocks {
			pb := plainBlock{ID: b.ID, LandingPad: b.LandingPad, Count: b.Count, Kind: b.Term.Kind, Cond: b.Term.Cond, Index: b.Term.Index}
			for _, in := range b.Ins {
				pad := -1
				if in.Pad != nil {
					pad = at(in.Pad)
				}
				in.Pad = nil
				pb.Ins, pb.Pads = append(pb.Ins, in), append(pb.Pads, pad)
			}
			for _, s := range b.Term.Succs {
				pb.Succs = append(pb.Succs, at(s))
			}
			pb.Weights = append(pb.Weights, b.Term.Weights...)
			pf.Blocks = append(pf.Blocks, pb)
		}
		out.Funcs = append(out.Funcs, pf)
	}
	return out
}

// TestDecodeModuleMatchesReference: the slab decoder against the
// allocate-per-node one on random modules — the same module (DeepEqual
// modulo the numbering), the same bytes when re-encoded by either encoder,
// a current numbering, and the same verdict on every truncation.
func TestDecodeModuleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		m := randModule(rng)
		data := EncodeModule(m)
		if ref := refEncodeModule(m); !bytes.Equal(data, ref) {
			t.Fatalf("trial %d: EncodeModule differs from the reference encoder", trial)
		}
		if EncodedSize(m) != len(data) || cap(data) != len(data) {
			t.Fatalf("trial %d: EncodedSize %d, encoded %d bytes in a %d-byte buffer", trial, EncodedSize(m), len(data), cap(data))
		}
		got, err := DecodeModule(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDecodeModule(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plainModule(t, got), plainModule(t, want)) {
			t.Fatalf("trial %d: decoded module differs from the reference decoder's:\n%s\n-- reference --\n%s", trial, got, want)
		}
		if err := Verify(got); err != nil {
			t.Fatalf("trial %d: decoded module does not verify (numbering included): %v", trial, err)
		}
		if !bytes.Equal(EncodeModule(got), data) || !bytes.Equal(refEncodeModule(got), data) {
			t.Fatalf("trial %d: re-encoded bytes differ", trial)
		}
		for cut := 0; cut < len(data); cut += 1 + rng.Intn(9) {
			_, errNew := DecodeModule(data[:cut])
			_, errRef := refDecodeModule(data[:cut])
			if (errNew == nil) != (errRef == nil) {
				t.Fatalf("trial %d: truncation at %d: %v, reference %v", trial, cut, errNew, errRef)
			}
		}
	}
}

// TestDecodedSlicesDoNotAlias: the slices of a decoded module are runs of
// shared chunks; appending to one must reallocate it, never write into the
// run after it.
func TestDecodedSlicesDoNotAlias(t *testing.T) {
	src := wideModule(3, 4, 2)
	data := EncodeModule(src)
	m, err := DecodeModule(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			b.Emit(Inst{Op: isa.OpMovI, Imm: 99})
			if len(b.Term.Succs) > 0 {
				b.Term.Succs = append(b.Term.Succs, f.Blocks[0])
				b.Term.Weights = append(b.Term.Weights, 12345)
				b.Term.Succs, b.Term.Weights = b.Term.Succs[:2], b.Term.Weights[:2]
			}
			b.Ins = b.Ins[:len(b.Ins)-1]
		}
		f.NewBlock().Return()
		f.Blocks, f.nextBlockID = f.Blocks[:len(f.Blocks)-1], f.nextBlockID-1
	}
	if !bytes.Equal(EncodeModule(m), data) {
		t.Fatal("an append to one decoded slice changed another")
	}
}

// encodeFuncs encodes each function of m as a module of its own; nil for a
// function the encoder cannot place a block reference of.
func encodeFuncs(m *Module) [][]byte {
	out := make([][]byte, len(m.Funcs))
	for i, f := range m.Funcs {
		func() {
			defer func() { recover() }()
			out[i] = EncodeModule(&Module{Name: m.Name, Funcs: []*Func{f}})
		}()
	}
	return out
}

// TestClonedSlicesDoNotAlias: a clone's slices are runs of five slabs the
// whole module shares. Growing one — Emit into a block, NewBlock on a
// function, a terminator rebuilt or grown — must reallocate it and never
// write into the run after it, which here is always another function's.
func TestClonedSlicesDoNotAlias(t *testing.T) {
	edit := func(m *Module) {
		f := m.Funcs[1]
		grow, last := f.Blocks[len(f.Blocks)-2], f.Blocks[len(f.Blocks)-1]
		last.Emit(Inst{Op: isa.OpMovI, A: 1, Imm: 99}) // next run: fn_2's entry instructions
		added := f.NewBlock()                          // next run: this function's successor lists
		added.Return()
		last.Branch(isa.CondEQ, f.Blocks[0], added)
		weights := append(grow.Term.Weights, 7)           // next run: fn_2's entry weights
		grow.Switch(3, append(grow.Term.Succs, added)...) // next run: fn_2's block list
		grow.Term.Weights = weights
	}
	src := wideModule(3, 4, 2)
	clone := CloneModule(src)
	before := encodeFuncs(clone)
	edit(src)
	edit(clone)
	after, want := encodeFuncs(clone), encodeFuncs(src)
	for i := range after {
		if i != 1 && !bytes.Equal(after[i], before[i]) {
			t.Errorf("editing fn_1 of a clone changed fn_%d", i)
		}
		if after[i] == nil || !bytes.Equal(after[i], want[i]) {
			t.Errorf("fn_%d of the edited clone differs from the same edits on its source", i)
		}
	}
}

// TestCloneModuleAllocs: CloneModule allocates the module, its function
// list and five slabs, plus a global list and at most three objects per
// global — never per function, block or instruction. (Before the slabs it
// allocated two slices and a Func per function, an instruction slice per
// block, and a successor and a weight slice per branching block.)
func TestCloneModuleAllocs(t *testing.T) {
	for _, shape := range [][4]int{{8, 4, 4, 0}, {8, 64, 4, 0}, {64, 16, 16, 0}, {8, 4, 4, 3}, {64, 16, 16, 3}} {
		funcs, blocks, ins, globals := shape[0], shape[1], shape[2], shape[3]
		m := wideModule(funcs, blocks, ins)
		for i := 0; i < globals; i++ {
			m.AddGlobal(&Global{Name: fmt.Sprintf("g%d", i), Size: 16, Init: []byte{1, 2}, FuncPtrs: []string{"fn_0"}})
		}
		got := testing.AllocsPerRun(10, func() { CloneModule(m) })
		t.Logf("%d funcs x %d blocks x %d instructions, %d globals: %.0f allocations", funcs, blocks, ins, globals, got)
		if limit := float64(8 + 3*globals); got > limit {
			t.Errorf("CloneModule of %d funcs x %d blocks x %d instructions, %d globals: %.0f allocations, want <= %.0f", funcs, blocks, ins, globals, got, limit)
		}
	}
}

// TestStaleNumbering: reordering Blocks by hand without Renumber is caught
// by the verifier (so by codegen.Compile, which verifies first; its half of
// this test is in codegen) and by the encoder, each naming the function —
// never encoded as the index of some other block.
func TestStaleNumbering(t *testing.T) {
	build := func() *Func {
		m := wideModule(1, 4, 1)
		f := m.Funcs[0]
		f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
		return f
	}
	f := build()
	err := VerifyFunc(f)
	if err == nil || !strings.Contains(err.Error(), f.Name) || !strings.Contains(err.Error(), "stale block numbering") {
		t.Errorf("VerifyFunc on a reordered function: %v", err)
	}
	f.Renumber()
	if err := VerifyFunc(f); err != nil {
		t.Errorf("VerifyFunc after Renumber: %v", err)
	}

	for name, encode := range map[string]func(*Func){
		"EncodeModule": func(f *Func) { EncodeModule(&Module{Name: "m", Funcs: []*Func{f}}) },
		"CloneFunc":    func(f *Func) { CloneFunc(f) },
	} {
		f := build()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, f.Name) || !strings.Contains(msg, "stale block numbering") {
					t.Errorf("%s on a reordered function: recovered %q, want a panic naming %s", name, msg, f.Name)
				}
			}()
			encode(f)
		}()
	}

	// A block removed without Renumber leaves references past the end.
	f = build()
	f.Renumber()
	f.Blocks = f.Blocks[:len(f.Blocks)-1]
	if err := VerifyFunc(f); err == nil {
		t.Error("VerifyFunc accepted a successor that was removed from Blocks")
	}
}

// TestDecodeModuleAllocs: allocations are a + b·functions, whatever the
// blocks per function and instructions per block (one Block slab and one
// name per function; chunks, the symbol table and the module itself are
// per module).
func TestDecodeModuleAllocs(t *testing.T) {
	allocs := func(funcs, blocks, ins int) float64 {
		data := EncodeModule(wideModule(funcs, blocks, ins))
		return testing.AllocsPerRun(10, func() {
			if _, err := DecodeModule(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, shape := range [][3]int{{8, 4, 4}, {8, 64, 4}, {8, 4, 64}, {64, 16, 16}} {
		funcs, blocks, ins := shape[0], shape[1], shape[2]
		// Chunks hold 256 instructions, 128 block pointers (a function's
		// block list and every successor list) or 128 weights.
		chunks := funcs*blocks*ins/256 + funcs*blocks*3/128 + funcs*blocks*2/128 + 3
		got := allocs(funcs, blocks, ins)
		t.Logf("%d funcs x %d blocks x %d instructions: %.0f allocations", funcs, blocks, ins, got)
		if limit := float64(24 + 3*funcs + 2*chunks); got > limit {
			t.Errorf("DecodeModule of %d funcs x %d blocks x %d instructions: %.0f allocations, want <= %.0f", funcs, blocks, ins, got, limit)
		}
	}
}

// TestBlockSize: the block numbering rides in Block's padding. It must not
// grow the struct: 150k of them are live in a Superroot program, and as
// many again in every decode of it.
func TestBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Block{}); got != 112 {
		t.Errorf("sizeof(Block) = %d, want 112", got)
	}
}
