// Package opt implements the classic middle-end scalar and CFG
// optimizations that "all optimizations enabled" implies for the Phase-1
// build (§3.1): the baseline every §5 comparison starts from is a fully
// optimized binary, so the reproduction optimizes too.
//
// Passes (run to a fixpoint by Optimize):
//
//   - constant folding + copy/constant propagation within blocks;
//   - branch folding: conditional branches over known flags become jumps;
//   - unreachable-block elimination;
//   - jump threading: empty blocks that only jump are bypassed;
//   - block merging: a block with a single jump successor whose successor
//     has a single predecessor is fused.
//
// All passes preserve the program's observable behaviour (halt value and
// externally visible stores); the test suite checks this by executing
// optimized and unoptimized builds.
package opt

import (
	"propeller/internal/ir"
	"propeller/internal/isa"
)

// Stats count what the passes did.
type Stats struct {
	Folded       int // instructions simplified or removed
	BranchesGone int // conditional branches decided at compile time
	BlocksGone   int // unreachable or merged-away blocks
	Threaded     int // jumps redirected through empty blocks
}

// Optimize runs all passes over the module to a fixpoint.
func Optimize(m *ir.Module) (*Stats, error) {
	st := &Stats{}
	for _, f := range m.Funcs {
		for {
			changed := false
			if foldConstants(f, st) {
				changed = true
			}
			if foldBranches(f, st) {
				changed = true
			}
			if threadJumps(f, st) {
				changed = true
			}
			if removeUnreachable(f, st) {
				changed = true
			}
			if mergeBlocks(f, st) {
				changed = true
			}
			if !changed {
				break
			}
		}
		if err := ir.VerifyFunc(f); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// value is the lattice for local propagation: unknown, or a known constant.
type value struct {
	known bool
	c     int64
}

// foldConstants runs per-block constant/copy propagation and algebraic
// simplification. It is local (no cross-block dataflow), which keeps it
// trivially sound in the presence of arbitrary CFG edges.
func foldConstants(f *ir.Func, st *Stats) bool {
	changed := false
	for _, b := range f.Blocks {
		var regs [isa.NumRegs]value
		flags := value{}
		out := b.Ins[:0]
		for _, in := range b.Ins {
			nin, drop := foldInst(in, &regs, &flags)
			if drop {
				st.Folded++
				changed = true
				continue
			}
			if nin != in {
				st.Folded++
				changed = true
			}
			out = append(out, nin)
		}
		b.Ins = out
		// Branch over compile-time-known flags.
		if b.Term.Kind == ir.TermBranch && flags.known {
			target := b.Term.Succs[1]
			if b.Term.Cond.Holds(flags.c) {
				target = b.Term.Succs[0]
			}
			b.Jump(target)
			st.BranchesGone++
			changed = true
		}
	}
	return changed
}

// foldInst simplifies one instruction under the current known-register
// state, returning the (possibly rewritten) instruction and whether it can
// be dropped entirely.
func foldInst(in ir.Inst, regs *[isa.NumRegs]value, flags *value) (ir.Inst, bool) {
	kill := func(r byte) { regs[r] = value{} }
	setC := func(r byte, c int64) { regs[r] = value{known: true, c: c} }
	a, bv := regs[in.A], regs[in.B]

	switch in.Op {
	case isa.OpMovI:
		setC(in.A, in.Imm)
		return in, false
	case isa.OpMovI64:
		if in.Sym != "" {
			kill(in.A) // address unknown until link time
			return in, false
		}
		setC(in.A, in.Imm)
		return in, false
	case isa.OpMovRR:
		if in.A == in.B {
			return in, true // mov r, r
		}
		if bv.known {
			// Forward the constant; keep as an immediate move when it fits.
			if isa.FitsRel32(bv.c) {
				setC(in.A, bv.c)
				return ir.Inst{Op: isa.OpMovI, A: in.A, Imm: bv.c}, false
			}
			setC(in.A, bv.c)
			return ir.Inst{Op: isa.OpMovI64, A: in.A, Imm: bv.c}, false
		}
		kill(in.A)
		return in, false
	case isa.OpAddI:
		if in.Imm == 0 {
			return in, true
		}
		if a.known {
			setC(in.A, a.c+in.Imm)
		} else {
			kill(in.A)
		}
		return in, false
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr:
		if a.known && bv.known {
			c, ok := evalALU(in.Op, a.c, bv.c)
			if ok && isa.FitsRel32(c) {
				setC(in.A, c)
				return ir.Inst{Op: isa.OpMovI, A: in.A, Imm: c}, false
			}
		}
		// Algebraic identities with an unknown left operand.
		if bv.known && bv.c == 0 && (in.Op == isa.OpAdd || in.Op == isa.OpSub || in.Op == isa.OpOr || in.Op == isa.OpXor || in.Op == isa.OpShl || in.Op == isa.OpShr) {
			return in, true // x op 0 = x
		}
		kill(in.A)
		return in, false
	case isa.OpDiv, isa.OpMod:
		// Folding could hide a division-by-zero trap; only fold when the
		// divisor is a known non-zero constant.
		if a.known && bv.known && bv.c != 0 {
			var c int64
			if in.Op == isa.OpDiv {
				c = a.c / bv.c
			} else {
				c = a.c % bv.c
			}
			if isa.FitsRel32(c) {
				setC(in.A, c)
				return ir.Inst{Op: isa.OpMovI, A: in.A, Imm: c}, false
			}
		}
		kill(in.A)
		return in, false
	case isa.OpCmp:
		if a.known && bv.known {
			*flags = value{known: true, c: sign(a.c - bv.c)}
		} else {
			*flags = value{}
		}
		return in, false
	case isa.OpCmpI:
		if a.known {
			*flags = value{known: true, c: sign(a.c - in.Imm)}
		} else {
			*flags = value{}
		}
		return in, false
	case isa.OpLoad, isa.OpPop:
		kill(in.B)
		if in.Op == isa.OpPop {
			kill(in.A)
		}
		return in, false
	case isa.OpStore, isa.OpPush, isa.OpPrefetch:
		return in, false
	case isa.OpCall, isa.OpCallR:
		// Calls clobber everything except FP/SP by convention.
		for r := byte(0); r < isa.NumRegs; r++ {
			if r != isa.RegFP && r != isa.RegSP {
				regs[r] = value{}
			}
		}
		*flags = value{}
		return in, false
	default:
		kill(in.A)
		kill(in.B)
		*flags = value{}
		return in, false
	}
}

func evalALU(op isa.Op, a, b int64) (int64, bool) {
	switch op {
	case isa.OpAdd:
		return a + b, true
	case isa.OpSub:
		return a - b, true
	case isa.OpMul:
		return a * b, true
	case isa.OpAnd:
		return a & b, true
	case isa.OpOr:
		return a | b, true
	case isa.OpXor:
		return a ^ b, true
	case isa.OpShl:
		return a << (uint64(b) & 63), true
	case isa.OpShr:
		return int64(uint64(a) >> (uint64(b) & 63)), true
	}
	return 0, false
}

func sign(v int64) int64 {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// foldBranches simplifies degenerate terminators: a conditional whose two
// sides coincide becomes a jump.
func foldBranches(f *ir.Func, st *Stats) bool {
	changed := false
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBranch && b.Term.Succs[0] == b.Term.Succs[1] {
			b.Jump(b.Term.Succs[0])
			st.BranchesGone++
			changed = true
		}
	}
	return changed
}

// threadJumps redirects edges that point at empty jump-only blocks.
func threadJumps(f *ir.Func, st *Stats) bool {
	// trampoline(b) = ultimate target of an empty jump chain.
	resolve := func(b *ir.Block) *ir.Block {
		seen := map[*ir.Block]bool{}
		for len(b.Ins) == 0 && b.Term.Kind == ir.TermJump && !b.LandingPad {
			if seen[b] {
				break // cycle of empty jumps (infinite loop): keep as is
			}
			seen[b] = true
			b = b.Term.Succs[0]
		}
		return b
	}
	changed := false
	for _, b := range f.Blocks {
		for i, s := range b.Term.Succs {
			if t := resolve(s); t != s {
				b.Term.Succs[i] = t
				st.Threaded++
				changed = true
			}
		}
	}
	return changed
}

// removeUnreachable drops blocks with no path from the entry. Landing pads
// are reachable through any call instruction that names them.
func removeUnreachable(f *ir.Func, st *Stats) bool {
	reach := map[*ir.Block]bool{}
	var visit func(b *ir.Block)
	visit = func(b *ir.Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, in := range b.Ins {
			if in.Pad != nil {
				visit(in.Pad)
			}
		}
		for _, s := range b.Term.Succs {
			visit(s)
		}
	}
	visit(f.Entry())
	if len(reach) == len(f.Blocks) {
		return false
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		} else {
			st.BlocksGone++
		}
	}
	f.Blocks = kept
	f.Renumber()
	return true
}

// mergeBlocks fuses a jump-only edge when the successor has exactly one
// predecessor (and is not a landing pad or the entry).
func mergeBlocks(f *ir.Func, st *Stats) bool {
	preds := map[*ir.Block]int{}
	for _, b := range f.Blocks {
		seen := map[*ir.Block]bool{}
		for _, s := range b.Term.Succs {
			if !seen[s] {
				seen[s] = true
				preds[s]++
			}
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for b.Term.Kind == ir.TermJump {
			s := b.Term.Succs[0]
			if s == b || s == f.Entry() || s.LandingPad || preds[s] != 1 {
				break
			}
			// Fuse s into b.
			b.Ins = append(b.Ins, s.Ins...)
			b.Term = s.Term
			s.Ins = nil
			s.Term = ir.Term{Kind: ir.TermReturn} // neutralize; removed below
			preds[s] = 0
			changed = true
			// s is now unreachable; removeUnreachable collects it.
		}
	}
	if changed {
		removeUnreachable(f, st)
	}
	return changed
}
