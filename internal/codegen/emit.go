package codegen

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"propeller/internal/bbaddrmap"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/objfile"
	"propeller/internal/prefetch"
)

// Switch lowering uses the two codegen-reserved scratch registers r12/r13:
//
//	mov   r12, <idx>     ; 3 bytes
//	movi  r13, 3         ; 6
//	shl   r12, r13       ; 3
//	movi64 r13, <table>  ; 10, ABS64 reloc
//	add   r13, r12       ; 3
//	load  r13, [r13+0]   ; 7
//	jmpr  r13            ; 2
const switchSeqBytes = 34

// movi64 sits at this offset inside the switch sequence.
const switchMovi64Off = 12

// tailBranch is one branch instruction appended after a block's body.
type tailBranch struct {
	op     isa.Op // long-form opcode
	target *ir.Block
	local  bool  // target in the same section: resolved at compile time
	size   int64 // 5 when long, 2 when relaxed to the short form
}

// blockState is the lowering state of one block.
type blockState struct {
	plan, pos  int32 // section plan, and position within it; plan -1 until assigned
	listed     bool  // named by the function's cluster directive
	off, size  int64 // offset within the section; body plus tail branches
	body       int64 // body size excluding tail branches
	tails      [2]tailBranch
	nTails     int32
	pfLo, pfHi int32 // layout.prefetch[pfLo:pfHi] are this block's insertions
}

// prefetchIns is one §3.5 insertion: a prefetch ahead of body instruction
// inst of its block, delta bytes past the load's address.
type prefetchIns struct {
	inst  int
	delta int64
}

// layout carries all per-function lowering state. The compiler owns one
// and reuses its slices for every function it lowers.
type layout struct {
	f     *ir.Func
	plans []sectionPlan

	// blocks is indexed by ir.Block.Index(), which ir.Verify (Compile runs
	// it first) has checked for every block, successor and landing pad.
	blocks []blockState

	order     []*ir.Block // backing array of a directive's plans
	byID      []int32     // block numbers sorted by stable ID
	prefetch  []prefetchIns
	secSize   []int64
	mapBlocks []bbaddrmap.BlockEntry

	// The function's jump tables, which its rodata section holds once all
	// its text sections are emitted.
	roData   []byte
	roRelocs []relocRec
}

// release drops what the state points into in the function last lowered,
// which is all it holds of its module: each function's state is released
// before the next is laid out, so no stale entry lies past a slice's length.
func (lo *layout) release() {
	lo.f = nil
	clear(lo.plans)
	clear(lo.blocks)
	clear(lo.order)
	lo.plans, lo.order, lo.roRelocs = lo.plans[:0], lo.order[:0], lo.roRelocs[:0]
}

func (lo *layout) reset(f *ir.Func) {
	lo.release()
	lo.f = f
	lo.prefetch = lo.prefetch[:0]
	lo.blocks = slices.Grow(lo.blocks[:0], len(f.Blocks))[:len(f.Blocks)]
	for i := range lo.blocks {
		lo.blocks[i] = blockState{plan: -1}
	}
}

func (lo *layout) state(b *ir.Block) *blockState { return &lo.blocks[b.Index()] }

func (cg *compiler) emitFunc(lo *layout, emitMap bool) error {
	f := lo.f
	covered := 0
	for pi := range lo.plans {
		plan := &lo.plans[pi]
		// Any section beginning with a landing pad gets a leading nop so the
		// pad offset relative to the section start is non-zero (§4.5).
		if plan.blocks[0].LandingPad {
			plan.nop = true
		}
		for pos, b := range plan.blocks {
			st := lo.state(b)
			if st.plan < 0 {
				covered++
			}
			st.plan, st.pos = int32(pi), int32(pos)
		}
	}
	if covered != len(f.Blocks) {
		return fmt.Errorf("codegen: %s: section plan covers %d of %d blocks", f.Name, covered, len(f.Blocks))
	}

	sites := cg.opts.Prefetch[f.Name]
	for _, b := range f.Blocks {
		st := lo.state(b)
		if len(sites) > 0 {
			lo.matchPrefetch(sites, b, st)
		}
		st.body = cg.bodySize(b, st)
		if err := lo.tailPlan(b, st); err != nil {
			return err
		}
	}
	lo.relax()
	return cg.emitSections(lo, emitMap)
}

// bodySize is the byte size of the block's non-terminator code plus any
// switch dispatch sequence, inline jump table, and inserted prefetches.
func (cg *compiler) bodySize(b *ir.Block, st *blockState) int64 {
	var n int64
	for _, in := range b.Ins {
		n += int64(isa.SizeOf(in.Op))
	}
	n += int64(st.pfHi-st.pfLo) * int64(isa.SizeOf(isa.OpPrefetch))
	if b.Term.Kind == ir.TermSwitch {
		n += switchSeqBytes
		if cg.opts.DataInCode {
			n += 8 * int64(len(b.Term.Succs))
		}
	}
	return n
}

// matchPrefetch matches the function's §3.5 insertion directives against a
// block, once: a directive identifies the load by its block-relative byte
// offset in the metadata build, which equals the cumulative
// body-instruction size here (body encodings are mode-independent). The
// last directive naming a load decides its delta.
func (lo *layout) matchPrefetch(sites []prefetch.Site, b *ir.Block, st *blockState) {
	st.pfLo = int32(len(lo.prefetch))
	off := uint64(0)
	for i, in := range b.Ins {
		if in.Op == isa.OpLoad {
			at := -1
			for si, site := range sites {
				if site.Block == b.ID && site.Off == off {
					at = si
				}
			}
			if at >= 0 {
				lo.prefetch = append(lo.prefetch, prefetchIns{inst: i, delta: sites[at].Delta})
			}
		}
		off += uint64(isa.SizeOf(in.Op))
	}
	st.pfHi = int32(len(lo.prefetch))
}

// tailPlan computes the branch instructions ending the block.
func (lo *layout) tailPlan(b *ir.Block, st *blockState) error {
	isNext := func(t *ir.Block) bool {
		ts := lo.state(t)
		return ts.plan == st.plan && ts.pos == st.pos+1
	}
	add := func(op isa.Op, t *ir.Block) {
		local := t != nil && lo.state(t).plan == st.plan
		st.tails[st.nTails] = tailBranch{op: op, target: t, local: local, size: int64(isa.SizeOf(op))}
		st.nTails++
	}
	switch b.Term.Kind {
	case ir.TermJump:
		// A jump to the next block is a physical fall-through within the
		// section.
		if t := b.Term.Succs[0]; !isNext(t) {
			add(isa.OpJmp, t)
		}
	case ir.TermBranch:
		t, f := b.Term.Succs[0], b.Term.Succs[1]
		switch {
		case t == f:
			if !isNext(t) {
				add(isa.OpJmp, t)
			}
		case isNext(f):
			add(isa.CondBranch(b.Term.Cond), t)
		case isNext(t):
			add(isa.CondBranch(b.Term.Cond.Negate()), f)
		default:
			// Explicit fall-through (§4.2): the conditional keeps its taken
			// target; the fall-through successor gets a trailing jump the
			// linker may later delete.
			add(isa.CondBranch(b.Term.Cond), t)
			add(isa.OpJmp, f)
		}
	case ir.TermSwitch:
		// Dispatch code is part of the body.
	case ir.TermReturn:
		add(isa.OpRet, nil)
	case ir.TermHalt:
		add(isa.OpHalt, nil)
	case ir.TermThrow:
		add(isa.OpThrow, nil)
	default:
		return fmt.Errorf("codegen: %s bb%d: unknown terminator", lo.f.Name, b.ID)
	}
	return nil
}

// relax computes block offsets, iteratively shrinking local branches whose
// displacement fits rel8. Shrinking is monotone (distances only decrease),
// so the loop terminates.
func (lo *layout) relax() {
	lo.secSize = slices.Grow(lo.secSize[:0], len(lo.plans))[:len(lo.plans)]
	for {
		lo.assignOffsets()
		changed := false
		for i := range lo.blocks {
			st := &lo.blocks[i]
			off := st.off + st.body
			for ti := range st.tails[:st.nTails] {
				tb := &st.tails[ti]
				if tb.local && tb.size == 5 && tb.op != isa.OpRet {
					disp := lo.state(tb.target).off - (off + 2) // size if short
					if isa.FitsRel8(disp) {
						tb.size = 2
						changed = true
					}
				}
				off += tb.size
			}
		}
		if !changed {
			return
		}
	}
}

func (lo *layout) assignOffsets() {
	for pi, plan := range lo.plans {
		var off int64
		if plan.nop {
			off = 1
		}
		for _, b := range plan.blocks {
			st := lo.state(b)
			st.off = off
			st.size = st.body
			for _, tb := range st.tails[:st.nTails] {
				st.size += tb.size
			}
			off += st.size
		}
		lo.secSize[pi] = off
	}
}

// emitSections writes the final bytes, relocations, symbols and BB address
// map fragments into the object builder, and collects CFI/LSDA records.
func (cg *compiler) emitSections(lo *layout, emitMap bool) error {
	f := lo.f
	b := &cg.ob
	// Every plan's names come first: a branch, jump table or landing pad
	// may refer to a section emitted after the one it is in.
	for pi := range lo.plans {
		plan := &lo.plans[pi]
		start := len(b.names)
		b.names = plan.appendSuffix(append(append(b.names, ".text."...), f.Name...))
		plan.name = name{lo: int32(start), hi: int32(len(b.names))}
		plan.sym = name{lo: int32(start + len(".text.")), hi: plan.name.hi}
	}
	// Resolve a block reference to (section symbol, offset) for relocations
	// and exception tables.
	blockRef := func(blk *ir.Block) (name, int64) {
		st := lo.state(blk)
		return lo.plans[st.plan].sym, st.off
	}

	rodataIdx := -1
	lo.roData = lo.roData[:0]
	for pi := range lo.plans {
		plan := &lo.plans[pi]
		// Primary sections keep function alignment; cluster sections pack
		// tightly (align 1) so ordered layouts can fall through between
		// sections, as LLD does for basic block sections.
		align := codeAlign
		if plan.suffix != primarySection {
			align = 1
		}
		// The section is buf[base:]; at is the offset in it buf ends at.
		base, rbase := len(b.data), len(b.relocs)
		buf := b.data
		at := func() int64 { return int64(len(buf) - base) }
		if plan.nop {
			buf = isa.Encode(buf, isa.Inst{Op: isa.OpNop})
		}
		mapBlocks := lo.mapBlocks[:0]
		for pos, blk := range plan.blocks {
			st := lo.state(blk)
			blockStart := at()
			if blockStart != st.off {
				return fmt.Errorf("codegen: %s bb%d: emitted offset %d != planned %d", f.Name, blk.ID, blockStart, st.off)
			}
			hasCall := false
			prefetches := lo.prefetch[st.pfLo:st.pfHi]
			// Body instructions.
			for ii, in := range blk.Ins {
				if len(prefetches) > 0 && prefetches[0].inst == ii {
					buf = isa.Encode(buf, isa.Inst{Op: isa.OpPrefetch, A: in.A, Imm: in.Imm + prefetches[0].delta})
					prefetches = prefetches[1:]
				}
				instOff := at()
				switch {
				case in.Op == isa.OpCall:
					hasCall = true
					buf = isa.Encode(buf, isa.Inst{Op: isa.OpCall})
					b.reloc(instOff, objfile.RelPC32, name{str: in.Sym}, in.Imm, false)
					if in.Pad != nil {
						padSym, padOff := blockRef(in.Pad)
						cg.lsda = append(cg.lsda, lsdaSite{callSec: plan.sym, callEndOff: instOff + 5, padSec: padSym, padOff: padOff})
					}
				case in.Op == isa.OpCallR:
					hasCall = true
					buf = isa.Encode(buf, isa.Inst{Op: in.Op, A: in.A})
					if in.Pad != nil {
						padSym, padOff := blockRef(in.Pad)
						cg.lsda = append(cg.lsda, lsdaSite{callSec: plan.sym, callEndOff: instOff + 2, padSec: padSym, padOff: padOff})
					}
				case in.Op == isa.OpMovI64 && in.Sym != "":
					buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovI64, A: in.A})
					b.reloc(instOff, objfile.RelAbs64, name{str: in.Sym}, in.Imm, false)
				default:
					if sz := isa.SizeOf(in.Op); (sz == 6 || sz == 7) && !isa.FitsRel32(in.Imm) {
						return fmt.Errorf("codegen: %s bb%d: immediate %d overflows the 32-bit field of %v",
							f.Name, blk.ID, in.Imm, in.Op)
					}
					buf = isa.Encode(buf, isa.Inst{Op: in.Op, A: in.A, B: in.B, Imm: in.Imm})
				}
			}
			// Switch dispatch + jump table.
			if blk.Term.Kind == ir.TermSwitch {
				var tableSym name
				var tableAddend int64
				if cg.opts.DataInCode {
					tableSym = plan.sym
					tableAddend = at() + switchSeqBytes
				} else {
					if rodataIdx < 0 {
						// The section's bytes and relocations are the
						// function's tables, filled in below.
						rodataIdx = b.addSection(b.spell(".rodata.", f.Name), objfile.SecRodata, 8, 0, 0)
					}
					tableSym = b.spell(f.Name, ".jt")
					b.names = strconv.AppendInt(b.names, int64(blk.ID), 10)
					tableSym.hi = int32(len(b.names))
					b.addSymbol(tableSym, objfile.SymObject, rodataIdx, int64(len(lo.roData)), 8*int64(len(blk.Term.Succs)))
					for _, succ := range blk.Term.Succs {
						sym, off := blockRef(succ)
						lo.roRelocs = append(lo.roRelocs, relocRec{
							Reloc: objfile.Reloc{Off: int64(len(lo.roData)), Type: objfile.RelAbs64Data, Addend: off},
							sym:   sym,
						})
						lo.roData = appendZeros(lo.roData, 8)
					}
				}
				seqStart := at()
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovRR, A: isa.RegTmp2, B: blk.Term.Index})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovI, A: isa.RegScratch, Imm: 3})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpShl, A: isa.RegTmp2, B: isa.RegScratch})
				b.reloc(at(), objfile.RelAbs64, tableSym, tableAddend, false)
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovI64, A: isa.RegScratch})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpAdd, A: isa.RegScratch, B: isa.RegTmp2})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpLoad, A: isa.RegScratch, B: isa.RegScratch})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpJmpR, A: isa.RegScratch})
				if got := at() - seqStart; got != switchSeqBytes {
					return fmt.Errorf("codegen: switch sequence is %d bytes, expected %d", got, switchSeqBytes)
				}
				if cg.opts.DataInCode {
					for _, succ := range blk.Term.Succs {
						sym, off := blockRef(succ)
						b.reloc(at(), objfile.RelAbs64Data, sym, off, false)
						buf = appendZeros(buf, 8)
					}
				}
			}
			// Tail branches.
			for _, tb := range st.tails[:st.nTails] {
				instOff := at()
				switch {
				case tb.op == isa.OpRet || tb.op == isa.OpHalt || tb.op == isa.OpThrow:
					buf = isa.Encode(buf, isa.Inst{Op: tb.op})
				case tb.local:
					op := tb.op
					if tb.size == 2 {
						op = tb.op.ShortForm()
					}
					disp := lo.state(tb.target).off - (instOff + tb.size)
					buf = isa.Encode(buf, isa.Inst{Op: op, Imm: disp})
				default:
					sym, off := blockRef(tb.target)
					buf = isa.Encode(buf, isa.Inst{Op: tb.op})
					b.reloc(instOff, objfile.RelPC32, sym, off, true)
				}
			}
			if got := at() - blockStart; got != st.size {
				return fmt.Errorf("codegen: %s bb%d: emitted %d bytes, planned %d", f.Name, blk.ID, got, st.size)
			}
			var flags bbaddrmap.BlockFlags
			if blk.LandingPad {
				flags |= bbaddrmap.FlagLandingPad
			}
			if blk.Term.Kind == ir.TermReturn {
				flags |= bbaddrmap.FlagReturn
			}
			if hasCall {
				flags |= bbaddrmap.FlagCall
			}
			if fallsThrough(plan, pos, blk, int(st.nTails)) {
				flags |= bbaddrmap.FlagFallThrough
			}
			mapBlocks = append(mapBlocks, bbaddrmap.BlockEntry{
				ID: blk.ID, Offset: uint64(st.off), Size: uint64(st.size), Flags: flags,
			})
		}
		lo.mapBlocks = mapBlocks
		size := at()
		b.data = buf
		secIdx := b.addSection(plan.name, objfile.SecText, align, base, rbase)
		symKind := objfile.SymFunc
		if plan.suffix != primarySection {
			symKind = objfile.SymFuncPart
		}
		b.addSymbol(plan.sym, symKind, secIdx, 0, size)
		cg.fragments = append(cg.fragments, fragment{sym: plan.sym, size: size})
		if emitMap {
			mapName := b.spell(".llvm_bb_addr_map.")
			b.names = plan.appendSuffix(append(b.names, f.Name...))
			mapName.hi = int32(len(b.names))
			start := len(b.data)
			b.data = bbaddrmap.AppendFunc(b.data, &bbaddrmap.FuncEntry{Name: f.Name, Addr: 0, Blocks: mapBlocks})
			b.addSection(mapName, objfile.SecBBAddrMap, 1, start, len(b.relocs))
		}
	}
	if rodataIdx >= 0 {
		ro := &b.secs[rodataIdx]
		ro.lo, ro.rlo = len(b.data), len(b.relocs)
		b.data = append(b.data, lo.roData...)
		b.relocs = append(b.relocs, lo.roRelocs...)
		ro.hi, ro.rhi = len(b.data), len(b.relocs)
	}
	return nil
}

// fallsThrough reports whether b's layout successor inside the same section
// is a CFG successor reached without a taken branch; tails is the number of
// tail branches b was given.
func fallsThrough(plan *sectionPlan, pos int, b *ir.Block, tails int) bool {
	if pos+1 >= len(plan.blocks) {
		return false
	}
	next := plan.blocks[pos+1]
	switch b.Term.Kind {
	case ir.TermJump:
		return b.Term.Succs[0] == next && tails == 0
	case ir.TermBranch:
		// Fall-through exists when the conditional's not-taken path is the
		// next block (a single tail branch was emitted).
		return tails == 1 && (b.Term.Succs[1] == next || b.Term.Succs[0] == next)
	}
	return false
}

// emitEHFrame writes one CFI section for the module: a 24-byte CIE plus one
// FDE per text fragment. Each additional basic-block section costs one more
// FDE (§4.4), which is why clustering matters.
func (cg *compiler) emitEHFrame(module string) {
	if len(cg.fragments) == 0 {
		return
	}
	b := &cg.ob
	start := len(b.data)
	b.data = appendZeros(b.data, 24) // CIE
	for _, fr := range cg.fragments {
		b.data = cg.appendFDE(b.data, fr)
	}
	b.addSection(b.spell(".eh_frame.", module), objfile.SecEHFrame, 8, start, len(b.relocs))
}

// appendFDE appends one frame descriptor entry: [u16 nameLen][name][u64
// size], padded to at least 40 bytes (CFA redefinition + callee-saved
// register rules), rounded up to 8.
func (cg *compiler) appendFDE(dst []byte, fr fragment) []byte {
	n := fr.sym.len()
	rec := (max(2+n+8, 40) + 7) &^ 7
	start := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	dst = cg.ob.appendName(dst, fr.sym)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(fr.size))
	return appendZeros(dst, rec-(len(dst)-start))
}

// DecodeEHFrame parses a merged eh_frame blob back into (name, size) pairs.
// The simulator does not need CFI (it unwinds its own call stack), but
// tests use this to check FDE-per-fragment invariants.
func DecodeEHFrame(data []byte) ([]string, error) {
	var names []string
	pos := 0
	for pos < len(data) {
		if len(data)-pos < 24 {
			return nil, fmt.Errorf("codegen: truncated eh_frame CIE at %d", pos)
		}
		pos += 24 // CIE
		for pos+2 <= len(data) {
			nameLen := int(binary.LittleEndian.Uint16(data[pos:]))
			if nameLen == 0 {
				break // next CIE
			}
			recLen := 2 + nameLen + 8
			if recLen < 40 {
				recLen = 40
			}
			recLen = (recLen + 7) &^ 7
			if pos+recLen > len(data) {
				return nil, fmt.Errorf("codegen: truncated FDE at %d", pos)
			}
			names = append(names, string(data[pos+2:pos+2+nameLen]))
			pos += recLen
		}
	}
	return names, nil
}

// emitDebugRanges writes the §4.3 debug metadata: for every text fragment
// a range record [u16 nameLen][name][8B start][8B end], where start and
// end resolve through two address relocations against the fragment symbol
// — exactly the per-cluster DW_AT_ranges + two relocations the paper
// describes.
func (cg *compiler) emitDebugRanges(module string) {
	if !cg.opts.DebugInfo || len(cg.fragments) == 0 {
		return
	}
	b := &cg.ob
	start, rstart := len(b.data), len(b.relocs)
	for _, fr := range cg.fragments {
		b.data = binary.LittleEndian.AppendUint16(b.data, uint16(fr.sym.len()))
		b.data = b.appendName(b.data, fr.sym)
		off := int64(len(b.data) - start)
		b.data = appendZeros(b.data, 16)
		b.reloc(off, objfile.RelAbs64Data, fr.sym, 0, false)
		b.reloc(off+8, objfile.RelAbs64Data, fr.sym, fr.size, false)
	}
	b.addSection(b.spell(".debug_ranges.", module), objfile.SecDebug, 8, start, rstart)
}

// DebugRange is one decoded §4.3 range record.
type DebugRange struct {
	Sym        string
	Start, End uint64
}

// DecodeDebugRanges parses a merged debug blob.
func DecodeDebugRanges(data []byte) ([]DebugRange, error) {
	var out []DebugRange
	pos := 0
	for pos < len(data) {
		if pos+2 > len(data) {
			return nil, fmt.Errorf("codegen: truncated debug record at %d", pos)
		}
		n := int(data[pos]) | int(data[pos+1])<<8
		pos += 2
		if pos+n+16 > len(data) {
			return nil, fmt.Errorf("codegen: truncated debug record at %d", pos)
		}
		r := DebugRange{Sym: string(data[pos : pos+n])}
		pos += n
		r.Start = binary.LittleEndian.Uint64(data[pos:])
		r.End = binary.LittleEndian.Uint64(data[pos+8:])
		pos += 16
		out = append(out, r)
	}
	return out, nil
}

// emitLSDA writes the exception call-site table: 16 zero bytes per record,
// patched by the linker via ABS64 data relocations into (call-site end
// address, landing-pad address) pairs the simulator's unwinder consumes.
func (cg *compiler) emitLSDA(module string) {
	if len(cg.lsda) == 0 {
		return
	}
	b := &cg.ob
	start, rstart := len(b.data), len(b.relocs)
	for _, cs := range cg.lsda {
		off := int64(len(b.data) - start)
		b.reloc(off, objfile.RelAbs64Data, cs.callSec, cs.callEndOff, false)
		b.reloc(off+8, objfile.RelAbs64Data, cs.padSec, cs.padOff, false)
		b.data = appendZeros(b.data, 16)
	}
	b.addSection(b.spell(".lsda.", module), objfile.SecLSDA, 8, start, rstart)
}
