// Package ir defines the compiler intermediate representation used by the
// Propeller reproduction: modules of functions, each an explicit control-flow
// graph of basic blocks over WSA-register operations.
//
// The IR plays the role of optimized LLVM IR in the paper's Phase 1 (§3.1):
// it is what the distributed build system caches, what ThinLTO importing and
// PGO transformations operate on, and what the backend (internal/codegen)
// lowers to machine code in Phases 2 and 4.
package ir

import (
	"fmt"

	"propeller/internal/isa"
)

// Module is a translation unit: one source file's functions and globals.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global
}

// Global is a data object placed in the binary's rodata or data segment.
type Global struct {
	Name     string
	Size     int64 // bytes; Init may be shorter (zero-filled)
	Init     []byte
	ReadOnly bool

	// CodeSnapshotOf, when non-empty, asks the toolchain to bake a
	// FIPS-140-2 style integrity digest of the named function's linked
	// code into this global: an FNV-1a hash at offset 0 and the hashed
	// code size at offset 8 (§5.8). The global must be at least 16 bytes.
	CodeSnapshotOf string

	// FuncPtrs, when non-empty, makes this global a function-pointer
	// table: slot i (8 bytes at offset 8i) holds the address of
	// FuncPtrs[i], filled by the linker via data relocations. The global
	// must be at least 8*len(FuncPtrs) bytes.
	FuncPtrs []string
}

// Linkage controls symbol visibility across modules.
type Linkage byte

const (
	// External symbols are visible to other modules and the linker.
	External Linkage = iota
	// Internal symbols are module-local (static).
	Internal
)

// Func is a function: a CFG whose entry is Blocks[0].
type Func struct {
	Name      string
	Module    string // owning module name (informational)
	Linkage   Linkage
	NumParams int

	// Blocks in layout-agnostic creation order. Blocks[0] is the entry.
	// Block IDs are stable across transformations and are the keys used by
	// the BB address map and the cluster directives in cc_prof.txt.
	// Every block knows its position here (Index); code that reorders or
	// shortens Blocks directly must call Renumber.
	Blocks []*Block

	// HasEH marks functions containing calls covered by landing pads; they
	// get an LSDA and their landing-pad blocks form a dedicated section.
	HasEH bool

	// Imported marks a cross-module copy created by ThinLTO importing.
	Imported bool

	// EntryCount is the profiled number of invocations (PGO metadata).
	EntryCount uint64

	nextBlockID int
}

// Block is a basic block: straight-line instructions plus one terminator.
type Block struct {
	ID   int
	Fn   *Func
	Ins  []Inst
	Term Term

	// LandingPad marks exception landing pads (targets of unwinding).
	LandingPad bool

	index int32 // position in Fn.Blocks (see Renumber); here, it fills padding

	// Count is the profiled execution count (PGO metadata).
	Count uint64
}

// Inst is a non-terminator IR operation. It reuses the WSA opcode space for
// ALU/move/memory operations; Sym carries symbolic references that codegen
// turns into relocations:
//
//   - OpCall: Sym is the callee.
//   - OpMovI64 with Sym != "": materialize the address of a global/function.
//
// Pad, when non-nil, is the landing pad for a call instruction (invoke).
type Inst struct {
	Op  isa.Op
	A   byte
	B   byte
	Imm int64
	Sym string
	Pad *Block
}

// TermKind discriminates terminator shapes.
type TermKind byte

const (
	// TermJump is an unconditional jump to Succs[0].
	TermJump TermKind = iota
	// TermBranch is a two-way conditional: Succs[0] taken if Cond holds,
	// otherwise Succs[1].
	TermBranch
	// TermSwitch is an indexed jump through a table over Succs.
	TermSwitch
	// TermReturn returns to the caller.
	TermReturn
	// TermHalt stops the machine (program exit).
	TermHalt
	// TermThrow raises an exception; the unwinder resolves the landing pad.
	TermThrow
)

// Term is a basic-block terminator with per-edge profile weights.
type Term struct {
	Kind  TermKind
	Cond  isa.Cond // for TermBranch
	Index byte     // register holding the switch index, for TermSwitch
	Succs []*Block

	// Weights[i] is the profiled traversal count of the edge to Succs[i].
	// len(Weights) == len(Succs) once a profile has been applied; empty
	// before that.
	Weights []uint64
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// NewFunc creates a function with an entry block and appends it to m.
func (m *Module) NewFunc(name string, params int) *Func {
	f := &Func{Name: name, Module: m.Name, NumParams: params}
	f.NewBlock() // entry
	m.Funcs = append(m.Funcs, f)
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// AddGlobal appends a global to the module.
func (m *Module) AddGlobal(g *Global) { m.Globals = append(m.Globals, g) }

// NewBlock creates a block with the next stable ID and appends it to f.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: f.nextBlockID, Fn: f, index: int32(len(f.Blocks))}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Index returns b's position in b.Fn.Blocks: the dense numbering the
// verifier, the encoder and the backend index per-block state by. They only
// read it (one Program is encoded and compiled from several goroutines) and
// check it as they go, so a stale numbering is an error, never a wrong block.
func (b *Block) Index() int { return int(b.index) }

// Renumber re-establishes Blocks[i].Index() == i. It writes every block, so
// it belongs to the pass that owns the function, never to a reader.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.index = int32(i)
	}
}

// numbered reports whether b is a block of f whose number is current.
func (f *Func) numbered(b *Block) bool {
	return b != nil && uint(b.index) < uint(len(f.Blocks)) && f.Blocks[b.index] == b
}

// mustIndex is Index for EncodeModule and CloneFunc, which cannot return an
// error: any index for a block f does not hold under its number would
// silently build a different program.
func (f *Func) mustIndex(b *Block) int {
	if !f.numbered(b) {
		panic(fmt.Sprintf("ir: function %s: block reference outside the function or stale block numbering (Func.Renumber not called after reordering Blocks)", f.Name))
	}
	return int(b.index)
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NumInsts returns the total instruction count including terminators.
func (f *Func) NumInsts() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Ins) + 1
	}
	return n
}

// Preds returns the predecessor blocks of b within its function.
func (b *Block) Preds() []*Block {
	var preds []*Block
	for _, other := range b.Fn.Blocks {
		for _, s := range other.Term.Succs {
			if s == b {
				preds = append(preds, other)
				break
			}
		}
	}
	return preds
}

// Emit appends a non-terminator instruction.
func (b *Block) Emit(in Inst) { b.Ins = append(b.Ins, in) }

// Jump sets an unconditional jump terminator.
func (b *Block) Jump(to *Block) {
	b.Term = Term{Kind: TermJump, Succs: []*Block{to}}
}

// Branch sets a conditional terminator: taken→t, fallthrough→f.
func (b *Block) Branch(cond isa.Cond, t, f *Block) {
	b.Term = Term{Kind: TermBranch, Cond: cond, Succs: []*Block{t, f}}
}

// Switch sets an indexed jump terminator over dsts using index register reg.
func (b *Block) Switch(reg byte, dsts ...*Block) {
	b.Term = Term{Kind: TermSwitch, Index: reg, Succs: dsts}
}

// Return sets a return terminator.
func (b *Block) Return() { b.Term = Term{Kind: TermReturn} }

// Halt sets a halt terminator.
func (b *Block) Halt() { b.Term = Term{Kind: TermHalt} }

// Throw sets a throw terminator.
func (b *Block) Throw() { b.Term = Term{Kind: TermThrow} }

// TotalWeight returns the sum of the terminator's edge weights.
func (t *Term) TotalWeight() uint64 {
	var sum uint64
	for _, w := range t.Weights {
		sum += w
	}
	return sum
}

// EdgeWeight returns the weight of the edge to succ index i (0 if unset).
func (t *Term) EdgeWeight(i int) uint64 {
	if i < len(t.Weights) {
		return t.Weights[i]
	}
	return 0
}

// SetWeights records per-edge profile weights; len(w) must match Succs.
func (t *Term) SetWeights(w ...uint64) {
	if len(w) != len(t.Succs) {
		panic(fmt.Sprintf("ir: SetWeights: %d weights for %d successors", len(w), len(t.Succs)))
	}
	t.Weights = append([]uint64(nil), w...)
}

func (k TermKind) String() string {
	switch k {
	case TermJump:
		return "jump"
	case TermBranch:
		return "branch"
	case TermSwitch:
		return "switch"
	case TermReturn:
		return "return"
	case TermHalt:
		return "halt"
	case TermThrow:
		return "throw"
	}
	return fmt.Sprintf("termkind(%d)", byte(k))
}
