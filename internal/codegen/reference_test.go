package codegen

import (
	"fmt"

	"propeller/internal/bbaddrmap"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
)

// The backend's function lowering as it was before the IR had a block
// numbering, kept verbatim as the oracle of TestCompileMatchesReference:
// six map[*ir.Block] tables per function, a tail-branch slice per block,
// directive IDs resolved by a linear scan, prefetch sites matched twice
// per block. RefCompile is Compile over it; globals, CFI, LSDA and debug
// ranges go through the production emitters, which keep no per-block state.

type refCompiler struct{ *compiler }

// RefCompile lowers a module through the reference lowering.
func RefCompile(m *ir.Module, opts Options) (*objfile.Object, error) {
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	if opts.HeuristicSplit && (opts.Mode == ModeNone || opts.Mode == ModeLabels) {
		m = applyHeuristicSplit(m, opts.splitMinBytes())
	}
	obj := &objfile.Object{Name: m.Name}
	cg := &refCompiler{&compiler{opts: opts, obj: obj}}
	for _, g := range m.Globals {
		cg.lowerGlobal(g)
	}
	for _, f := range m.Funcs {
		if err := cg.lowerFunc(f); err != nil {
			return nil, err
		}
	}
	cg.emitEHFrame()
	cg.emitLSDA()
	cg.emitDebugRanges()
	if err := obj.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: produced invalid object: %w", err)
	}
	return obj, nil
}

// refSectionPlan is one future text section: an ordered run of blocks.
type refSectionPlan struct {
	suffix string // "" for the primary section
	blocks []*ir.Block
	nop    bool // prepend a nop (landing-pad-first rule, §4.5)
}

func (cg *refCompiler) lowerFunc(f *ir.Func) error {
	plans, emitMap, err := cg.planSections(f)
	if err != nil {
		return err
	}
	return cg.emitFunc(f, plans, emitMap)
}

// planSections decides the block→section assignment.
func (cg *refCompiler) planSections(f *ir.Func) ([]refSectionPlan, bool, error) {
	switch cg.opts.Mode {
	case ModeNone:
		return []refSectionPlan{{suffix: "", blocks: f.Blocks}}, false, nil
	case ModeLabels:
		return []refSectionPlan{{suffix: "", blocks: f.Blocks}}, true, nil
	case ModeAll:
		var plans []refSectionPlan
		for i, b := range f.Blocks {
			suffix := ""
			if i > 0 {
				suffix = fmt.Sprintf(".%d", b.ID)
			}
			plans = append(plans, refSectionPlan{suffix: suffix, blocks: []*ir.Block{b}})
		}
		return plans, true, nil
	case ModeList:
		spec, ok := cg.opts.Directives[f.Name]
		if !ok {
			// No directive: this function was cold in the profile; keep the
			// vanilla single-section layout.
			return []refSectionPlan{{suffix: "", blocks: f.Blocks}}, true, nil
		}
		return cg.planFromDirective(f, spec)
	}
	return nil, false, fmt.Errorf("codegen: unknown mode %v", cg.opts.Mode)
}

func (cg *refCompiler) planFromDirective(f *ir.Func, spec layoutfile.ClusterSpec) ([]refSectionPlan, bool, error) {
	if len(spec.Clusters) == 0 || len(spec.Clusters[0]) == 0 {
		return nil, false, fmt.Errorf("codegen: %s: empty cluster directive", f.Name)
	}
	if spec.Clusters[0][0] != f.Entry().ID {
		return nil, false, fmt.Errorf("codegen: %s: primary cluster must start with entry block %d, got %d",
			f.Name, f.Entry().ID, spec.Clusters[0][0])
	}
	var plans []refSectionPlan
	listed := map[int]bool{}
	for ci, cluster := range spec.Clusters {
		suffix := ""
		if ci > 0 {
			suffix = fmt.Sprintf(".%d", ci)
		}
		var blocks []*ir.Block
		for _, id := range cluster {
			b := refBlockByID(f, id)
			if b == nil {
				return nil, false, fmt.Errorf("codegen: %s: directive references unknown block %d", f.Name, id)
			}
			if listed[id] {
				return nil, false, fmt.Errorf("codegen: %s: block %d in multiple clusters", f.Name, id)
			}
			listed[id] = true
			blocks = append(blocks, b)
		}
		plans = append(plans, refSectionPlan{suffix: suffix, blocks: blocks})
	}
	// Unlisted blocks form the implicit cold section: non-pads first, then
	// landing pads kept together (§4.5).
	var coldPlain, coldPads []*ir.Block
	for _, b := range f.Blocks {
		if listed[b.ID] {
			continue
		}
		if b.LandingPad {
			coldPads = append(coldPads, b)
		} else {
			coldPlain = append(coldPlain, b)
		}
	}
	if len(coldPlain)+len(coldPads) > 0 {
		cold := refSectionPlan{suffix: ".cold", blocks: append(coldPlain, coldPads...)}
		// If the cold section begins with a landing pad, a nop keeps the
		// pad's offset from @LPStart non-zero (§4.5).
		if cold.blocks[0].LandingPad {
			cold.nop = true
		}
		plans = append(plans, cold)
	}
	return plans, true, nil
}

// refTailBranch is one branch instruction appended after a block's body.
type refTailBranch struct {
	op     isa.Op // long-form opcode
	target *ir.Block
	local  bool  // target in the same section: resolved at compile time
	size   int64 // 5 when long, 2 when relaxed to the short form
}

// refLayout carries all per-function lowering state.
type refLayout struct {
	f     *ir.Func
	plans []refSectionPlan

	planOf map[*ir.Block]int
	posOf  map[*ir.Block]int // position within its plan
	offOf  map[*ir.Block]int64
	sizeOf map[*ir.Block]int64
	body   map[*ir.Block]int64 // body size excluding tail branches
	tails  map[*ir.Block][]refTailBranch

	secSize []int64
}

func (cg *refCompiler) emitFunc(f *ir.Func, plans []refSectionPlan, emitMap bool) error {
	lo := &refLayout{
		f:      f,
		plans:  plans,
		planOf: map[*ir.Block]int{},
		posOf:  map[*ir.Block]int{},
		offOf:  map[*ir.Block]int64{},
		sizeOf: map[*ir.Block]int64{},
		body:   map[*ir.Block]int64{},
		tails:  map[*ir.Block][]refTailBranch{},
	}
	for pi := range plans {
		// Any section beginning with a landing pad gets a leading nop so the
		// pad offset relative to the section start is non-zero (§4.5).
		if plans[pi].blocks[0].LandingPad {
			plans[pi].nop = true
		}
		for pos, b := range plans[pi].blocks {
			lo.planOf[b] = pi
			lo.posOf[b] = pos
		}
	}
	if len(lo.planOf) != len(f.Blocks) {
		return fmt.Errorf("codegen: %s: section plan covers %d of %d blocks", f.Name, len(lo.planOf), len(f.Blocks))
	}

	for _, b := range f.Blocks {
		lo.body[b] = cg.bodySize(f, b)
		tails, err := lo.tailPlan(b)
		if err != nil {
			return err
		}
		lo.tails[b] = tails
	}
	lo.relax()
	return cg.emitSections(lo, emitMap)
}

// bodySize is the byte size of the block's non-terminator code plus any
// switch dispatch sequence, inline jump table, and inserted prefetches.
func (cg *refCompiler) bodySize(f *ir.Func, b *ir.Block) int64 {
	var n int64
	for _, in := range b.Ins {
		n += int64(isa.SizeOf(in.Op))
	}
	n += int64(len(cg.prefetchAt(f, b))) * int64(isa.SizeOf(isa.OpPrefetch))
	if b.Term.Kind == ir.TermSwitch {
		n += switchSeqBytes
		if cg.opts.DataInCode {
			n += 8 * int64(len(b.Term.Succs))
		}
	}
	return n
}

// prefetchAt matches §3.5 insertion directives against a block: the
// directive identifies the load by its block-relative byte offset in the
// metadata build, which equals the cumulative body-instruction size here
// (body encodings are mode-independent). Returns inst index → delta.
func (cg *refCompiler) prefetchAt(f *ir.Func, b *ir.Block) map[int]int64 {
	sites := cg.opts.Prefetch[f.Name]
	if len(sites) == 0 {
		return nil
	}
	var out map[int]int64
	off := uint64(0)
	for i, in := range b.Ins {
		if in.Op == isa.OpLoad {
			for _, site := range sites {
				if site.Block == b.ID && site.Off == off {
					if out == nil {
						out = map[int]int64{}
					}
					out[i] = site.Delta
				}
			}
		}
		off += uint64(isa.SizeOf(in.Op))
	}
	return out
}

// tailPlan computes the branch instructions ending the block.
func (lo *refLayout) tailPlan(b *ir.Block) ([]refTailBranch, error) {
	sameSection := func(t *ir.Block) bool { return lo.planOf[t] == lo.planOf[b] }
	isNext := func(t *ir.Block) bool {
		return sameSection(t) && lo.posOf[t] == lo.posOf[b]+1
	}
	mk := func(op isa.Op, t *ir.Block) refTailBranch {
		return refTailBranch{op: op, target: t, local: sameSection(t), size: int64(isa.SizeOf(op))}
	}
	switch b.Term.Kind {
	case ir.TermJump:
		t := b.Term.Succs[0]
		if isNext(t) {
			return nil, nil // physical fall-through within the section
		}
		return []refTailBranch{mk(isa.OpJmp, t)}, nil
	case ir.TermBranch:
		t, f := b.Term.Succs[0], b.Term.Succs[1]
		if t == f {
			if isNext(t) {
				return nil, nil
			}
			return []refTailBranch{mk(isa.OpJmp, t)}, nil
		}
		switch {
		case isNext(f):
			return []refTailBranch{mk(isa.CondBranch(b.Term.Cond), t)}, nil
		case isNext(t):
			return []refTailBranch{mk(isa.CondBranch(b.Term.Cond.Negate()), f)}, nil
		default:
			// Explicit fall-through (§4.2): the conditional keeps its taken
			// target; the fall-through successor gets a trailing jump the
			// linker may later delete.
			return []refTailBranch{mk(isa.CondBranch(b.Term.Cond), t), mk(isa.OpJmp, f)}, nil
		}
	case ir.TermSwitch:
		return nil, nil // dispatch code is part of the body
	case ir.TermReturn:
		return []refTailBranch{{op: isa.OpRet, size: 1}}, nil
	case ir.TermHalt:
		return []refTailBranch{{op: isa.OpHalt, size: 1}}, nil
	case ir.TermThrow:
		return []refTailBranch{{op: isa.OpThrow, size: 1}}, nil
	}
	return nil, fmt.Errorf("codegen: %s bb%d: unknown terminator", lo.f.Name, b.ID)
}

// relax computes block offsets, iteratively shrinking local branches whose
// displacement fits rel8. Shrinking is monotone (distances only decrease),
// so the loop terminates.
func (lo *refLayout) relax() {
	for {
		lo.assignOffsets()
		changed := false
		for _, b := range lo.f.Blocks {
			tails := lo.tails[b]
			off := lo.offOf[b] + lo.body[b]
			for i := range tails {
				tb := &tails[i]
				if tb.local && tb.size == 5 && tb.op != isa.OpRet {
					disp := lo.offOf[tb.target] - (off + 2) // size if short
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

func (lo *refLayout) assignOffsets() {
	lo.secSize = make([]int64, len(lo.plans))
	for pi, plan := range lo.plans {
		var off int64
		if plan.nop {
			off = 1
		}
		for _, b := range plan.blocks {
			lo.offOf[b] = off
			size := lo.body[b]
			for _, tb := range lo.tails[b] {
				size += tb.size
			}
			lo.sizeOf[b] = size
			off += size
		}
		lo.secSize[pi] = off
	}
}

// emitSections writes the final bytes, relocations, symbols, BB address map
// fragments, and collects CFI/LSDA records.
func (cg *refCompiler) emitSections(lo *refLayout, emitMap bool) error {
	f := lo.f
	// Resolve a block reference to (section symbol, offset) for relocations
	// and exception tables.
	secSym := func(pi int) string { return symbolNameFor(f.Name, lo.plans[pi].suffix) }
	blockRef := func(b *ir.Block) (string, int64) {
		return secSym(lo.planOf[b]), lo.offOf[b]
	}

	var rodata *objfile.Section
	rodataIdx := -1
	ensureRodata := func() (*objfile.Section, int) {
		if rodata == nil {
			rodata = &objfile.Section{Name: ".rodata." + f.Name, Kind: objfile.SecRodata, Align: 8}
			rodataIdx = cg.obj.AddSection(rodata)
		}
		return rodata, rodataIdx
	}

	for pi, plan := range lo.plans {
		buf := make([]byte, 0, lo.secSize[pi])
		// Primary sections keep function alignment; cluster sections pack
		// tightly (align 1) so ordered refLayouts can fall through between
		// sections, as LLD does for basic block sections.
		align := cg.opts.codeAlign()
		if plan.suffix != "" {
			align = 1
		}
		sec := &objfile.Section{
			Name:  sectionNameFor(f.Name, plan.suffix),
			Kind:  objfile.SecText,
			Align: align,
		}
		if plan.nop {
			buf = isa.Encode(buf, isa.Inst{Op: isa.OpNop})
		}
		var mapBlocks []bbaddrmap.BlockEntry
		for pos, b := range plan.blocks {
			blockStart := int64(len(buf))
			if blockStart != lo.offOf[b] {
				return fmt.Errorf("codegen: %s bb%d: emitted offset %d != planned %d", f.Name, b.ID, blockStart, lo.offOf[b])
			}
			hasCall := false
			prefetches := cg.prefetchAt(f, b)
			// Body instructions.
			for ii, in := range b.Ins {
				if delta, ok := prefetches[ii]; ok {
					buf = isa.Encode(buf, isa.Inst{Op: isa.OpPrefetch, A: in.A, Imm: in.Imm + delta})
				}
				instOff := int64(len(buf))
				switch {
				case in.Op == isa.OpCall:
					hasCall = true
					buf = isa.Encode(buf, isa.Inst{Op: isa.OpCall})
					sec.Relocs = append(sec.Relocs, objfile.Reloc{
						Off: instOff, Type: objfile.RelPC32, Sym: in.Sym, Addend: in.Imm,
					})
					if in.Pad != nil {
						padSym, padOff := blockRef(in.Pad)
						cg.lsda = append(cg.lsda, callSite{
							callSec:    sec.Name[len(".text."):],
							callEndOff: instOff + 5,
							padSec:     padSym,
							padOff:     padOff,
						})
					}
				case in.Op == isa.OpCallR:
					hasCall = true
					buf = isa.Encode(buf, isa.Inst{Op: in.Op, A: in.A})
					if in.Pad != nil {
						padSym, padOff := blockRef(in.Pad)
						cg.lsda = append(cg.lsda, callSite{
							callSec:    sec.Name[len(".text."):],
							callEndOff: instOff + 2,
							padSec:     padSym,
							padOff:     padOff,
						})
					}
				case in.Op == isa.OpMovI64 && in.Sym != "":
					buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovI64, A: in.A})
					sec.Relocs = append(sec.Relocs, objfile.Reloc{
						Off: instOff, Type: objfile.RelAbs64, Sym: in.Sym, Addend: in.Imm,
					})
				default:
					if sz := isa.SizeOf(in.Op); (sz == 6 || sz == 7) && !isa.FitsRel32(in.Imm) {
						return fmt.Errorf("codegen: %s bb%d: immediate %d overflows the 32-bit field of %v",
							f.Name, b.ID, in.Imm, in.Op)
					}
					buf = isa.Encode(buf, isa.Inst{Op: in.Op, A: in.A, B: in.B, Imm: in.Imm})
				}
			}
			// Switch dispatch + jump table.
			if b.Term.Kind == ir.TermSwitch {
				var tableSym string
				var tableAddend int64
				if cg.opts.DataInCode {
					tableSym = secSym(pi)
					tableAddend = int64(len(buf)) + switchSeqBytes
				} else {
					ro, _ := ensureRodata()
					tableSym = fmt.Sprintf("%s.jt%d", f.Name, b.ID)
					cg.obj.AddSymbol(&objfile.Symbol{
						Name: tableSym, Kind: objfile.SymObject, Section: rodataIdx,
						Off: int64(len(ro.Data)), Size: 8 * int64(len(b.Term.Succs)), Global: true,
					})
					for _, succ := range b.Term.Succs {
						sym, off := blockRef(succ)
						ro.Relocs = append(ro.Relocs, objfile.Reloc{
							Off: int64(len(ro.Data)), Type: objfile.RelAbs64Data, Sym: sym, Addend: off,
						})
						ro.Data = append(ro.Data, make([]byte, 8)...)
					}
					ro.Size = int64(len(ro.Data))
				}
				seqStart := int64(len(buf))
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovRR, A: isa.RegTmp2, B: b.Term.Index})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovI, A: isa.RegScratch, Imm: 3})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpShl, A: isa.RegTmp2, B: isa.RegScratch})
				movOff := int64(len(buf))
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpMovI64, A: isa.RegScratch})
				sec.Relocs = append(sec.Relocs, objfile.Reloc{
					Off: movOff, Type: objfile.RelAbs64, Sym: tableSym, Addend: tableAddend,
				})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpAdd, A: isa.RegScratch, B: isa.RegTmp2})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpLoad, A: isa.RegScratch, B: isa.RegScratch})
				buf = isa.Encode(buf, isa.Inst{Op: isa.OpJmpR, A: isa.RegScratch})
				if got := int64(len(buf)) - seqStart; got != switchSeqBytes {
					return fmt.Errorf("codegen: switch sequence is %d bytes, expected %d", got, switchSeqBytes)
				}
				if cg.opts.DataInCode {
					for _, succ := range b.Term.Succs {
						sym, off := blockRef(succ)
						sec.Relocs = append(sec.Relocs, objfile.Reloc{
							Off: int64(len(buf)), Type: objfile.RelAbs64Data, Sym: sym, Addend: off,
						})
						buf = append(buf, make([]byte, 8)...)
					}
				}
			}
			// Tail branches.
			for _, tb := range lo.tails[b] {
				instOff := int64(len(buf))
				switch {
				case tb.op == isa.OpRet || tb.op == isa.OpHalt || tb.op == isa.OpThrow:
					buf = isa.Encode(buf, isa.Inst{Op: tb.op})
				case tb.local:
					op := tb.op
					if tb.size == 2 {
						op = tb.op.ShortForm()
					}
					disp := lo.offOf[tb.target] - (instOff + tb.size)
					buf = isa.Encode(buf, isa.Inst{Op: op, Imm: disp})
				default:
					sym, off := blockRef(tb.target)
					buf = isa.Encode(buf, isa.Inst{Op: tb.op})
					sec.Relocs = append(sec.Relocs, objfile.Reloc{
						Off: instOff, Type: objfile.RelPC32, Sym: sym, Addend: off,
						Relax: true,
					})
				}
			}
			if got := int64(len(buf)) - blockStart; got != lo.sizeOf[b] {
				return fmt.Errorf("codegen: %s bb%d: emitted %d bytes, planned %d", f.Name, b.ID, got, lo.sizeOf[b])
			}
			var flags bbaddrmap.BlockFlags
			if b.LandingPad {
				flags |= bbaddrmap.FlagLandingPad
			}
			if b.Term.Kind == ir.TermReturn {
				flags |= bbaddrmap.FlagReturn
			}
			if hasCall {
				flags |= bbaddrmap.FlagCall
			}
			if refFallsThrough(lo, plan, pos, b) {
				flags |= bbaddrmap.FlagFallThrough
			}
			mapBlocks = append(mapBlocks, bbaddrmap.BlockEntry{
				ID: b.ID, Offset: uint64(lo.offOf[b]), Size: uint64(lo.sizeOf[b]), Flags: flags,
			})
		}
		sec.Data = buf
		secIdx := cg.obj.AddSection(sec)
		symKind := objfile.SymFunc
		if plan.suffix != "" {
			symKind = objfile.SymFuncPart
		}
		cg.obj.AddSymbol(&objfile.Symbol{
			Name: secSym(pi), Kind: symKind, Section: secIdx,
			Off: 0, Size: sec.Size, Global: true,
		})
		cg.fragments = append(cg.fragments, fragmentInfo{symName: secSym(pi), size: sec.Size})
		if emitMap {
			m := &bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{{
				Name: f.Name, Addr: 0, Blocks: mapBlocks,
			}}}
			cg.obj.AddSection(&objfile.Section{
				Name: ".llvm_bb_addr_map." + secSym(pi),
				Kind: objfile.SecBBAddrMap,
				Data: bbaddrmap.Encode(m),
			})
		}
	}
	return nil
}

// refFallsThrough reports whether b's refLayout successor inside the same section
// is a CFG successor reached without a taken branch.
func refFallsThrough(lo *refLayout, plan refSectionPlan, pos int, b *ir.Block) bool {
	if pos+1 >= len(plan.blocks) {
		return false
	}
	next := plan.blocks[pos+1]
	switch b.Term.Kind {
	case ir.TermJump:
		return b.Term.Succs[0] == next && len(lo.tails[b]) == 0
	case ir.TermBranch:
		// Fall-through exists when the conditional's not-taken path is the
		// next block (a single tail branch was emitted).
		return len(lo.tails[b]) == 1 && (b.Term.Succs[1] == next || b.Term.Succs[0] == next)
	}
	return false
}

// refBlockByID is ir.Func.BlockByID, which went with its last caller.
func refBlockByID(f *ir.Func, id int) *ir.Block {
	for _, b := range f.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}
