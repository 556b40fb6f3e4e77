// Package codegen is the compiler backend: it lowers IR modules to WSA
// machine code packaged as WOF relocatable objects.
//
// This is the component the paper runs as a distributed compiler action in
// Phases 2 and 4 (§3.2, §3.4). Its layout behaviour is controlled by the
// basic-block-sections mode:
//
//   - ModeNone: one text section per function (plain function sections).
//   - ModeLabels: same layout as ModeNone plus a BB address map section per
//     function, enabling Phase-3 profile mapping (the "build with metadata"
//     configuration of §3.2).
//   - ModeList: cluster directives from cc_prof.txt decide which blocks form
//     which text section (§3.4, §4.1); unlisted blocks fall into an implicit
//     ".cold" section. Functions without a directive lower as ModeLabels.
//   - ModeAll: every basic block in its own section (the costly extreme
//     §4.1 argues against; kept for the ablation benchmarks).
//
// Within one section, branches are resolved and relaxed locally at
// compile time. Branches that cross sections are emitted in long form with
// static relocations, leaving resolution to the linker, and every
// fall-through that leaves a section is made explicit with a trailing jump
// the linker's relaxation pass may delete (§4.2).
package codegen

import (
	"cmp"
	"fmt"
	"slices"

	"propeller/internal/ir"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/prefetch"
)

// Mode selects the basic-block-sections behaviour.
type Mode int

const (
	// ModeNone emits one section per function and no address map.
	ModeNone Mode = iota
	// ModeLabels emits one section per function plus BB address maps.
	ModeLabels
	// ModeList emits cluster sections per the Directives plus address maps.
	ModeList
	// ModeAll emits one section per basic block plus address maps.
	ModeAll
)

func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeLabels:
		return "labels"
	case ModeList:
		return "list"
	case ModeAll:
		return "all"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configure a codegen invocation.
type Options struct {
	Mode Mode

	// Directives are the cc_prof.txt cluster lists (ModeList only).
	Directives layoutfile.Directives

	// HeuristicSplit enables the baseline machine-function splitter that
	// extracts cold blocks behind a call (Fig. 2 centre): the pre-Propeller
	// approach §4.6 compares against. Ignored in ModeList/ModeAll.
	HeuristicSplit bool

	// HeuristicSplitMinBytes is the minimum extracted-region size for the
	// call-based splitter; the call/ret overhead makes smaller regions
	// unprofitable, which is exactly the heuristic §4.6 says basic block
	// sections eliminate.
	HeuristicSplitMinBytes int

	// DataInCode embeds switch jump tables in the text section rather than
	// rodata, the x86 idiom that defeats linear disassembly (§2.4, §5.8).
	DataInCode bool

	// CodeAlign is the alignment of text sections (default 16).
	CodeAlign int64

	// Prefetch carries §3.5 software-prefetch insertion directives: the
	// backend emits a prefetch instruction ahead of each listed load.
	Prefetch prefetch.Directives

	// DebugInfo emits §4.3 debug range descriptors: one DW_AT_ranges-style
	// record per code fragment, carrying two address relocations. The
	// overhead is proportional to the number of fragments, which is the
	// paper's argument for clustering.
	DebugInfo bool
}

func (o *Options) codeAlign() int64 {
	if o.CodeAlign > 0 {
		return o.CodeAlign
	}
	return 16
}

func (o *Options) splitMinBytes() int {
	if o.HeuristicSplitMinBytes > 0 {
		return o.HeuristicSplitMinBytes
	}
	return 24
}

// Compile lowers a module to a relocatable object.
func Compile(m *ir.Module, opts Options) (*objfile.Object, error) {
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("codegen: %w", err)
	}
	if opts.HeuristicSplit && (opts.Mode == ModeNone || opts.Mode == ModeLabels) {
		m = applyHeuristicSplit(m, opts.splitMinBytes())
	}
	obj := &objfile.Object{Name: m.Name}
	cg := &compiler{opts: opts, obj: obj}

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

type compiler struct {
	opts Options
	obj  *objfile.Object

	// fragments lists every emitted text section (for CFI emission).
	fragments []fragmentInfo

	// lsda accumulates call-site records across the module.
	lsda []callSite

	// lo is the per-function lowering state, reused across the module's
	// functions.
	lo layout
}

type fragmentInfo struct {
	symName string
	size    int64
}

// callSite is one exception call-site table record: a call covered by a
// landing pad.
type callSite struct {
	callSec    string // section symbol containing the call
	callEndOff int64  // offset just past the call instruction
	padSec     string // section symbol containing the landing pad
	padOff     int64  // offset of the landing pad block in its section
}

func (cg *compiler) lowerGlobal(g *ir.Global) {
	kind := objfile.SecData
	prefix := ".data."
	if g.ReadOnly {
		kind = objfile.SecRodata
		prefix = ".rodata."
	}
	data := make([]byte, g.Size)
	copy(data, g.Init)
	sec := &objfile.Section{
		Name:  prefix + g.Name,
		Kind:  kind,
		Data:  data,
		Align: 8,
	}
	if g.CodeSnapshotOf != "" {
		sec.Relocs = append(sec.Relocs, objfile.Reloc{
			Off: 0, Type: objfile.RelCode64, Sym: g.CodeSnapshotOf,
		})
	}
	for i, fp := range g.FuncPtrs {
		sec.Relocs = append(sec.Relocs, objfile.Reloc{
			Off: int64(8 * i), Type: objfile.RelAbs64Data, Sym: fp,
		})
	}
	idx := cg.obj.AddSection(sec)
	cg.obj.AddSymbol(&objfile.Symbol{
		Name: g.Name, Kind: objfile.SymObject, Section: idx,
		Off: 0, Size: g.Size, Global: true,
	})
}

// sectionPlan is one future text section: an ordered run of blocks.
type sectionPlan struct {
	suffix string // "" for the primary section
	blocks []*ir.Block
	nop    bool // prepend a nop (landing-pad-first rule, §4.5)
}

func (cg *compiler) lowerFunc(f *ir.Func) error {
	lo := &cg.lo
	lo.reset(f)
	emitMap, err := cg.planSections(lo)
	if err != nil {
		return err
	}
	return cg.emitFunc(lo, emitMap)
}

// planSections decides the block→section assignment, filling lo.plans; it
// reports whether the function gets BB address maps.
func (cg *compiler) planSections(lo *layout) (bool, error) {
	f := lo.f
	switch cg.opts.Mode {
	case ModeAll:
		for i, b := range f.Blocks {
			suffix := ""
			if i > 0 {
				suffix = fmt.Sprintf(".%d", b.ID)
			}
			lo.plans = append(lo.plans, sectionPlan{suffix: suffix, blocks: f.Blocks[i : i+1]})
		}
		return true, nil
	case ModeList:
		if spec, ok := cg.opts.Directives[f.Name]; ok {
			return true, lo.planFromDirective(spec)
		}
		// No directive: this function was cold in the profile; keep the
		// vanilla single-section layout.
		fallthrough
	case ModeNone, ModeLabels:
		lo.plans = append(lo.plans, sectionPlan{blocks: f.Blocks})
		return cg.opts.Mode != ModeNone, nil
	}
	return false, fmt.Errorf("codegen: unknown mode %v", cg.opts.Mode)
}

func (lo *layout) planFromDirective(spec layoutfile.ClusterSpec) error {
	f := lo.f
	if len(spec.Clusters) == 0 || len(spec.Clusters[0]) == 0 {
		return fmt.Errorf("codegen: %s: empty cluster directive", f.Name)
	}
	if spec.Clusters[0][0] != f.Entry().ID {
		return fmt.Errorf("codegen: %s: primary cluster must start with entry block %d, got %d",
			f.Name, f.Entry().ID, spec.Clusters[0][0])
	}
	// Directives name blocks by stable ID: resolve them through the block
	// numbers sorted by ID (already sorted unless a pass laid the blocks
	// out), not by a scan of the function per listed ID.
	lo.byID = lo.byID[:0]
	for i := range f.Blocks {
		lo.byID = append(lo.byID, int32(i))
	}
	slices.SortFunc(lo.byID, func(a, b int32) int { return cmp.Compare(f.Blocks[a].ID, f.Blocks[b].ID) })
	// Every block lands in exactly one plan, so the plans' block lists are
	// runs of one backing array.
	order := slices.Grow(lo.order[:0], len(f.Blocks))
	for ci, cluster := range spec.Clusters {
		suffix := ""
		if ci > 0 {
			suffix = fmt.Sprintf(".%d", ci)
		}
		start := len(order)
		for _, id := range cluster {
			at, ok := slices.BinarySearchFunc(lo.byID, id, func(i int32, id int) int { return cmp.Compare(f.Blocks[i].ID, id) })
			if !ok {
				return fmt.Errorf("codegen: %s: directive references unknown block %d", f.Name, id)
			}
			b := f.Blocks[lo.byID[at]]
			if lo.state(b).listed {
				return fmt.Errorf("codegen: %s: block %d in multiple clusters", f.Name, id)
			}
			lo.state(b).listed = true
			order = append(order, b)
		}
		lo.plans = append(lo.plans, sectionPlan{suffix: suffix, blocks: order[start:len(order):len(order)]})
	}
	// Unlisted blocks form the implicit cold section: non-pads first, then
	// landing pads kept together (§4.5). A cold section that begins with a
	// landing pad gets its nop from emitFunc, like any other.
	start := len(order)
	for _, pads := range []bool{false, true} {
		for _, b := range f.Blocks {
			if !lo.state(b).listed && b.LandingPad == pads {
				order = append(order, b)
			}
		}
	}
	if len(order) > start {
		lo.plans = append(lo.plans, sectionPlan{suffix: ".cold", blocks: order[start:]})
	}
	lo.order = order
	return nil
}

// symbolNameFor returns the symbol naming a function fragment.
func symbolNameFor(fn, suffix string) string { return fn + suffix }

// sectionNameFor returns the section name for a function fragment.
func sectionNameFor(fn, suffix string) string { return ".text." + fn + suffix }
