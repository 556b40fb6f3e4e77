package ir

import (
	"fmt"
	"slices"

	"propeller/internal/isa"
)

// VerifyError describes an IR well-formedness violation.
type VerifyError struct {
	Func  string
	Block int
	Msg   string
}

func (e *VerifyError) Error() string {
	if e.Block >= 0 {
		return fmt.Sprintf("ir: %s bb%d: %s", e.Func, e.Block, e.Msg)
	}
	return fmt.Sprintf("ir: %s: %s", e.Func, e.Msg)
}

// Verify checks module-level invariants: unique function and global names,
// and per-function CFG well-formedness.
func Verify(m *Module) error {
	names := make(map[string]bool, len(m.Funcs)+len(m.Globals))
	for _, g := range m.Globals {
		if g.Name == "" {
			return &VerifyError{Func: "(global)", Block: -1, Msg: "unnamed global"}
		}
		if names[g.Name] {
			return &VerifyError{Func: g.Name, Block: -1, Msg: "duplicate symbol"}
		}
		names[g.Name] = true
		if int64(len(g.Init)) > g.Size {
			return &VerifyError{Func: g.Name, Block: -1, Msg: "initializer longer than size"}
		}
		if g.CodeSnapshotOf != "" && g.Size < 16 {
			return &VerifyError{Func: g.Name, Block: -1, Msg: "code snapshot global smaller than 16 bytes"}
		}
		if len(g.FuncPtrs) > 0 && g.Size < int64(8*len(g.FuncPtrs)) {
			return &VerifyError{Func: g.Name, Block: -1, Msg: "function pointer table smaller than its slots"}
		}
	}
	for _, f := range m.Funcs {
		if names[f.Name] {
			return &VerifyError{Func: f.Name, Block: -1, Msg: "duplicate symbol"}
		}
		names[f.Name] = true
		if err := VerifyFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// VerifyFunc checks a single function's CFG invariants:
//
//   - at least one block, all owned by f, with unique IDs;
//   - the block numbering is current, f.Blocks[b.Index()] == b for every
//     block, successor and landing pad (which is how membership in f is
//     decided): a pass that forgot Renumber fails here, not in the backend;
//   - every terminator's successor count matches its kind;
//   - the entry block is not a landing pad;
//   - weights, when present, match the successor count;
//   - register operands are valid machine registers;
//   - call landing pads are landing-pad blocks of the same function.
//
// It never writes the numbering: one program is verified from several
// goroutines.
func VerifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return &VerifyError{Func: f.Name, Block: -1, Msg: "function has no blocks"}
	}
	ascending := true
	for i, b := range f.Blocks {
		if b.Fn != f {
			return &VerifyError{Func: f.Name, Block: b.ID, Msg: "block owned by another function"}
		}
		if b.Index() != i {
			return &VerifyError{Func: f.Name, Block: b.ID, Msg: fmt.Sprintf("stale block numbering: block at position %d is numbered %d (Func.Renumber not called after reordering Blocks)", i, b.index)}
		}
		if i > 0 && b.ID <= f.Blocks[i-1].ID {
			ascending = false
		}
	}
	if !ascending {
		// Creation order is ascending: only a laid-out function sorts.
		ids := make([]int, len(f.Blocks))
		for i, b := range f.Blocks {
			ids[i] = b.ID
		}
		slices.Sort(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return &VerifyError{Func: f.Name, Block: ids[i], Msg: "duplicate block ID"}
			}
		}
	}
	if f.Entry().LandingPad {
		return &VerifyError{Func: f.Name, Block: f.Entry().ID, Msg: "entry block is a landing pad"}
	}
	for _, b := range f.Blocks {
		if err := verifyBlock(f, b); err != nil {
			return err
		}
	}
	return nil
}

func verifyBlock(f *Func, b *Block) error {
	fail := func(format string, args ...any) error {
		return &VerifyError{Func: f.Name, Block: b.ID, Msg: fmt.Sprintf(format, args...)}
	}
	for i, in := range b.Ins {
		if in.Op.IsTerminator() {
			return fail("instruction %d (%v) is a terminator inside the block body", i, in.Op)
		}
		if sz := isa.SizeOf(in.Op); sz == 0 {
			return fail("instruction %d has invalid opcode %v", i, in.Op)
		}
		if in.A >= isa.NumRegs || in.B >= isa.NumRegs {
			return fail("instruction %d (%v) uses out-of-range register", i, in.Op)
		}
		if in.Pad != nil {
			if in.Op != isa.OpCall && in.Op != isa.OpCallR {
				return fail("instruction %d: landing pad on non-call %v", i, in.Op)
			}
			if !f.numbered(in.Pad) {
				return fail("instruction %d: landing pad bb%d not in function", i, in.Pad.ID)
			}
			if !in.Pad.LandingPad {
				return fail("instruction %d: landing pad target bb%d not marked LandingPad", i, in.Pad.ID)
			}
		}
		if in.Op == isa.OpCall && in.Sym == "" {
			return fail("instruction %d: direct call without callee symbol", i)
		}
	}
	want := -1
	switch b.Term.Kind {
	case TermJump:
		want = 1
	case TermBranch:
		want = 2
	case TermSwitch:
		if len(b.Term.Succs) < 1 {
			return fail("switch with no successors")
		}
		if b.Term.Index >= isa.NumRegs {
			return fail("switch index register out of range")
		}
	case TermReturn, TermHalt, TermThrow:
		want = 0
	default:
		return fail("invalid terminator kind %d", b.Term.Kind)
	}
	if want >= 0 && len(b.Term.Succs) != want {
		return fail("%v terminator with %d successors, want %d", b.Term.Kind, len(b.Term.Succs), want)
	}
	for i, s := range b.Term.Succs {
		if !f.numbered(s) {
			return fail("successor %d not in function", i)
		}
	}
	if len(b.Term.Weights) != 0 && len(b.Term.Weights) != len(b.Term.Succs) {
		return fail("%d weights for %d successors", len(b.Term.Weights), len(b.Term.Succs))
	}
	return nil
}
