// Package linker implements the final link action: it resolves symbols
// across WOF objects, lays out sections (optionally following a symbol
// ordering file, the mechanism Propeller's global code layout uses, §3.4),
// runs the bespoke relaxation pass of §4.2 (fall-through branch deletion
// and branch shrinking), applies relocations, and merges metadata sections
// into the output executable.
package linker

import (
	"fmt"
	"sort"
	"strings"

	"propeller/internal/bbaddrmap"
	"propeller/internal/isa"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
)

// Config controls a link action.
type Config struct {
	// Entry is the entry symbol; default "main".
	Entry string

	// Order, when non-nil, is the ld_prof.txt symbol ordering: text
	// sections whose defining symbol appears in the list are placed first,
	// in list order; remaining text sections follow in input order.
	Order *layoutfile.SymbolOrder

	// NoRelax disables the relaxation pass (ablation).
	NoRelax bool

	// EmitAddrMap retains BB address map metadata in the output,
	// rebased to final addresses.
	EmitAddrMap bool

	// KeepMapFor, when non-nil, filters which objects' address maps are
	// retained; Phase-4 relinks drop the maps of cold cached objects
	// (§3.4). nil keeps every object's maps (subject to EmitAddrMap).
	KeepMapFor func(objName string) bool

	// HugePages aligns the text segment to 2M pages and marks the binary,
	// changing iTLB behaviour in the simulator.
	HugePages bool

	// RetainRelocs models BOLT-style metadata binaries that must carry
	// their static relocations in the output (.rela sections, §5.3).
	RetainRelocs bool
}

// Stats reports link-action costs for the memory/time models.
type Stats struct {
	InputBytes  int64 // total bytes of input sections + relocation records
	OutputBytes int64 // total bytes of the output image
	PeakMemory  int64 // modeled peak RSS: ~2x inputs + output (§5.2)

	TextSections   int
	JumpsDeleted   int   // fall-through branches removed by relaxation
	BranchesShrunk int   // rel32 branches rewritten to rel8
	BytesSaved     int64 // text bytes removed by relaxation
}

// placedSec is a section undergoing layout. Its data and relocs are the
// object's until relaxation first edits them (own), and its data is its
// place in the output image once the image is written (assemble).
type placedSec struct {
	obj    *objfile.Object
	sec    *objfile.Section
	data   []byte
	relocs []objfile.Reloc
	addr   uint64
	shrink int64 // bytes removed from the tail by relaxation
	sym    string
	// ordered marks a text section the ordering file has placed.
	ordered bool
	// owned marks data and relocs as private copies relaxation may edit.
	owned bool
}

// own gives ps private copies of its bytes and relocations before
// relaxation first edits them, so a link never writes its input objects.
func (ps *placedSec) own() {
	if !ps.owned {
		ps.data = append([]byte(nil), ps.data...)
		ps.relocs = append([]objfile.Reloc(nil), ps.relocs...)
		ps.owned = true
	}
}

// Link links objects into an executable.
func Link(objs []*objfile.Object, cfg Config) (*objfile.Binary, *Stats, error) {
	ld, bin, err := link(objs, cfg)
	if err != nil {
		return nil, nil, err
	}
	return bin, ld.stats(bin), nil
}

// link is Link, returning the link state beside the binary. Relocations
// are checked before the image exists (an absurd alignment gap fails as a
// range error instead of allocating the gap) and patched in the image.
func link(objs []*objfile.Object, cfg Config) (*linkState, *objfile.Binary, error) {
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	ld := &linkState{cfg: cfg}
	if err := ld.collect(objs); err != nil {
		return ld, nil, err
	}
	ld.orderText()
	ld.relaxAndPlace()
	if err := ld.applyRelocs(false); err != nil {
		return ld, nil, err
	}
	bin, err := ld.assemble()
	return ld, bin, err
}

type symDef struct {
	obj  *objfile.Object
	sec  *objfile.Section
	off  int64
	size int64
	kind objfile.SymKind
	ps   *placedSec // filled after layout for loaded sections
}

type linkState struct {
	cfg Config

	text     []*placedSec
	rodata   []*placedSec
	data     []*placedSec
	bss      []*placedSec
	maps     []*placedSec // BB address map sections
	ehframes []*placedSec
	lsdas    []*placedSec
	debugs   []*placedSec

	syms map[string]*symDef

	inputBytes int64
	relaxStats struct {
		deleted int
		shrunk  int
		saved   int64
	}
}

// collect indexes every object's sections and symbols. Link state is two
// exactly sized slabs for the whole link, placedSecs and symDefs; every
// section starts out reading its object's bytes and relocations.
func (ld *linkState) collect(objs []*objfile.Object) error {
	var nSecs, nSyms int
	var perKind [objfile.SecDebug + 1]int
	for _, obj := range objs {
		nSecs += len(obj.Sections)
		nSyms += len(obj.Symbols)
		for _, sec := range obj.Sections {
			if int(sec.Kind) < len(perKind) {
				perKind[sec.Kind]++
			}
		}
	}
	for k, n := range perKind {
		*ld.list(objfile.SectionKind(k)) = make([]*placedSec, 0, n)
	}
	ld.syms = make(map[string]*symDef, nSyms)
	secs := make([]placedSec, nSecs)
	defs := make([]symDef, nSyms)
	for _, obj := range objs {
		if err := obj.Validate(); err != nil {
			return fmt.Errorf("linker: %w", err)
		}
		objSecs := secs[:len(obj.Sections)]
		secs = secs[len(obj.Sections):]
		for i, sec := range obj.Sections {
			ps := &objSecs[i]
			*ps = placedSec{obj: obj, sec: sec, data: sec.Data, relocs: sec.Relocs}
			ld.inputBytes += sec.Size + int64(len(sec.Relocs))*objfile.RelPC32.Size()
			list := ld.list(sec.Kind)
			if list == nil {
				return fmt.Errorf("linker: %s: unknown section kind %v", sec.Name, sec.Kind)
			}
			*list = append(*list, ps)
		}
		for _, sym := range obj.Symbols {
			if prev, dup := ld.syms[sym.Name]; dup {
				return fmt.Errorf("linker: duplicate symbol %q in %s and %s", sym.Name, prev.obj.Name, obj.Name)
			}
			ps := &objSecs[sym.Section]
			def := &defs[0]
			defs = defs[1:]
			*def = symDef{
				obj: obj, sec: obj.Sections[sym.Section], off: sym.Off,
				size: sym.Size, kind: sym.Kind, ps: ps,
			}
			ld.syms[sym.Name] = def
			// Record the section's defining symbol (offset-0 func/part
			// symbol) for ordering-file lookups.
			if sym.Off == 0 && (sym.Kind == objfile.SymFunc || sym.Kind == objfile.SymFuncPart) {
				ps.sym = sym.Name
			}
		}
	}
	return nil
}

// list returns the link's list of sections of kind k, or nil for an
// unknown kind.
func (ld *linkState) list(k objfile.SectionKind) *[]*placedSec {
	switch k {
	case objfile.SecText:
		return &ld.text
	case objfile.SecRodata:
		return &ld.rodata
	case objfile.SecData:
		return &ld.data
	case objfile.SecBSS:
		return &ld.bss
	case objfile.SecBBAddrMap:
		return &ld.maps
	case objfile.SecEHFrame:
		return &ld.ehframes
	case objfile.SecLSDA:
		return &ld.lsdas
	case objfile.SecDebug:
		return &ld.debugs
	}
	return nil
}

// orderText reorders text sections per the symbol ordering file.
func (ld *linkState) orderText() {
	if ld.cfg.Order == nil {
		return
	}
	bySym := make(map[string]*placedSec, len(ld.text))
	for _, ps := range ld.text {
		if ps.sym != "" {
			bySym[ps.sym] = ps
		}
	}
	ordered := make([]*placedSec, 0, len(ld.text))
	for _, name := range ld.cfg.Order.Symbols {
		if ps, ok := bySym[name]; ok && !ps.ordered {
			ordered = append(ordered, ps)
			ps.ordered = true
		}
	}
	for _, ps := range ld.text {
		if !ps.ordered {
			ordered = append(ordered, ps)
		}
	}
	ld.text = ordered
}

func align(v uint64, a int64) uint64 {
	if a <= 1 {
		return v
	}
	ua := uint64(a)
	return (v + ua - 1) / ua * ua
}

// assignText assigns addresses to text sections with current sizes.
func (ld *linkState) assignText() {
	base := objfile.DefaultTextBase
	if ld.cfg.HugePages {
		base = align(base, objfile.HugePageSize)
	}
	addr := base
	for _, ps := range ld.text {
		addr = align(addr, ps.sec.Align)
		ps.addr = addr
		addr += uint64(len(ps.data))
	}
}

// relaxAndPlace runs the §4.2 relaxation pass to a fixpoint, then assigns
// final addresses to every loaded section.
func (ld *linkState) relaxAndPlace() {
	ld.assignText()
	if !ld.cfg.NoRelax {
		for {
			changed := false
			for i, ps := range ld.text {
				var next *placedSec
				if i+1 < len(ld.text) {
					next = ld.text[i+1]
				}
				if ld.relaxTail(ps, next) {
					changed = true
				}
			}
			if !changed {
				break
			}
			ld.assignText()
		}
	}
	// Place rodata, data, bss after text on fresh pages.
	addr := align(ld.textEnd(), objfile.PageSize)
	for _, ps := range ld.rodata {
		addr = align(addr, ps.sec.Align)
		ps.addr = addr
		addr += uint64(len(ps.data))
	}
	addr = align(addr, objfile.PageSize)
	for _, ps := range ld.data {
		addr = align(addr, ps.sec.Align)
		ps.addr = addr
		addr += uint64(len(ps.data))
	}
	for _, ps := range ld.bss {
		addr = align(addr, ps.sec.Align)
		ps.addr = addr
		addr += uint64(ps.sec.Size)
	}
}

func (ld *linkState) textBase() uint64 {
	if len(ld.text) == 0 {
		return objfile.DefaultTextBase
	}
	return ld.text[0].addr
}

func (ld *linkState) textEnd() uint64 {
	if len(ld.text) == 0 {
		return objfile.DefaultTextBase
	}
	last := ld.text[len(ld.text)-1]
	return last.addr + uint64(len(last.data))
}

// relaxTail processes the trailing relaxable branches of one section:
// deletes a fall-through jump or shrinks a rel32 branch whose displacement
// fits rel8. Returns true if anything changed.
//
// Deletion is decided structurally, not by displacement: the jump must
// target offset 0 of the section that directly follows in the layout, and
// that section must be unaligned (align 1). Those two facts stay true as
// other sections shrink, whereas a displacement-0 check could be
// invalidated when a later shrink opens an alignment gap. Shrinking is
// always safe: total text only contracts during relaxation, so every
// displacement magnitude is non-increasing and a branch that fits rel8 now
// still fits at the fixpoint.
func (ld *linkState) relaxTail(ps, next *placedSec) bool {
	changed := false
	for {
		ri := ld.tailReloc(ps)
		if ri < 0 {
			return changed
		}
		r := &ps.relocs[ri]
		def, ok := ld.syms[r.Sym]
		if !ok || def.ps == nil {
			return changed // undefined symbol; reported during applyRelocs
		}
		op := isa.Op(ps.data[r.Off])
		if op == isa.OpJmp && next != nil && def.ps == next &&
			def.off+r.Addend == 0 && next.sec.Align <= 1 {
			// Fall-through onto the very next section: delete the jump.
			ps.own()
			r = &ps.relocs[ri]
			ps.data = ps.data[:r.Off]
			ps.shrink += 5
			ps.relocs = append(ps.relocs[:ri], ps.relocs[ri+1:]...)
			ld.relaxStats.deleted++
			ld.relaxStats.saved += 5
			changed = true
			continue
		}
		// Shrink with a safety margin: upstream shrinkage can grow the
		// padding gap before an aligned section by up to align-1 bytes,
		// which may stretch a displacement measured now. A 48-byte margin
		// absorbs three worst-case 16-byte alignment gaps; the relocation
		// writer still fails loudly if the margin ever proves too small.
		const relaxMargin = 48
		target := def.ps.addr + uint64(def.off) + uint64(r.Addend)
		shortDisp := int64(target) - (int64(ps.addr) + r.Off + 2)
		if shortDisp >= -128+relaxMargin && shortDisp <= 127-relaxMargin {
			ps.own()
			r = &ps.relocs[ri]
			short := isa.Encode(nil, isa.Inst{Op: op.ShortForm()})
			ps.data = append(ps.data[:r.Off], short...)
			ps.shrink += 3
			r.Type = objfile.RelPC8
			ld.relaxStats.shrunk++
			ld.relaxStats.saved += 3
			changed = true
			continue
		}
		return changed
	}
}

// tailReloc returns the index of a relax-marked relocation covering the
// section's final instruction, or -1.
func (ld *linkState) tailReloc(ps *placedSec) int {
	size := int64(len(ps.data))
	for i := range ps.relocs {
		r := &ps.relocs[i]
		if !r.Relax || r.Type != objfile.RelPC32 {
			continue
		}
		if r.Off == size-5 {
			return i
		}
	}
	return -1
}

func (ld *linkState) symAddr(name string) (uint64, bool) {
	def, ok := ld.syms[name]
	if !ok {
		return 0, false
	}
	if def.ps == nil || !def.sec.Kind.Loaded() {
		return 0, false
	}
	return def.ps.addr + uint64(def.off), true
}

// applyRelocs resolves the relocations of every section the link patches,
// in text, rodata, data, LSDA, debug order. With write false it only checks
// them, reading each section's own bytes: every error a relocation can
// raise comes from that pass, which link runs before the output image
// exists. With write true it patches the sections' places in the image.
func (ld *linkState) applyRelocs(write bool) error {
	rel32, rel8 := isa.CheckRel32, isa.CheckRel8
	if write {
		rel32, rel8 = isa.PatchRel32, isa.PatchRel8
	}
	groups := [][]*placedSec{ld.text, ld.rodata, ld.data, ld.lsdas, ld.debugs}
	for _, group := range groups {
		for _, ps := range group {
			for _, r := range ps.relocs {
				target, ok := ld.symAddr(r.Sym)
				if !ok {
					return fmt.Errorf("linker: undefined symbol %q referenced from %s(%s)", r.Sym, ps.obj.Name, ps.sec.Name)
				}
				s := int64(target) + r.Addend
				switch r.Type {
				case objfile.RelPC32:
					p := int64(ps.addr) + r.Off + 5
					if err := rel32(ps.data, int(r.Off), s-p); err != nil {
						return fmt.Errorf("linker: %s(%s)+%#x: %w", ps.obj.Name, ps.sec.Name, r.Off, err)
					}
				case objfile.RelPC8:
					p := int64(ps.addr) + r.Off + 2
					if err := rel8(ps.data, int(r.Off), s-p); err != nil {
						return fmt.Errorf("linker: %s(%s)+%#x: %w", ps.obj.Name, ps.sec.Name, r.Off, err)
					}
				case objfile.RelAbs64:
					if r.Off+10 > int64(len(ps.data)) {
						return fmt.Errorf("linker: %s(%s): ABS64 reloc at %#x out of range", ps.obj.Name, ps.sec.Name, r.Off)
					}
					if write {
						putU64(ps.data[r.Off+2:], uint64(s))
					}
				case objfile.RelAbs64Data:
					if r.Off+8 > int64(len(ps.data)) {
						return fmt.Errorf("linker: %s(%s): ABS64DATA reloc at %#x out of range", ps.obj.Name, ps.sec.Name, r.Off)
					}
					if write {
						putU64(ps.data[r.Off:], uint64(s))
					}
				case objfile.RelCode64:
					// FIPS-style integrity digest: bake (hash, size) of
					// the target symbol's final code. Text sections are
					// patched before data (group order), so the digest
					// sees fully relocated code.
					def := ld.syms[r.Sym]
					if def.sec.Kind != objfile.SecText {
						return fmt.Errorf("linker: CODE64 reloc target %q is not code", r.Sym)
					}
					if r.Off+16 > int64(len(ps.data)) {
						return fmt.Errorf("linker: CODE64 reloc at %#x out of range", r.Off)
					}
					end := int64(len(def.ps.data))
					if def.off > end {
						return fmt.Errorf("linker: CODE64 target %q offset out of range", r.Sym)
					}
					if write {
						code := def.ps.data[def.off:end]
						putU64(ps.data[r.Off:], objfile.CodeHash(code))
						putU64(ps.data[r.Off+8:], uint64(len(code)))
					}
				default:
					return fmt.Errorf("linker: unknown relocation type %v", r.Type)
				}
			}
		}
	}
	return nil
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// assemble builds the output binary. Every loaded, LSDA and debug section
// is copied once, to its final place in the output, which is where
// applyRelocs then patches it; halt padding fills only the gaps between
// text sections.
func (ld *linkState) assemble() (*objfile.Binary, error) {
	bin := &objfile.Binary{HugePages: ld.cfg.HugePages}
	bin.TextBase = ld.textBase()
	bin.Text = make([]byte, ld.textEnd()-bin.TextBase)
	bin.Sections = make([]objfile.PlacedSection, 0, len(ld.text)+len(ld.rodata)+len(ld.data)+len(ld.bss))
	gap := 0 // start of the text not yet written
	for _, ps := range ld.text {
		off := int(ps.addr - bin.TextBase)
		// Pad gaps with halt bytes (like trap padding in real linkers),
		// so falling into padding stops execution loudly.
		for i := gap; i < off; i++ {
			bin.Text[i] = byte(isa.OpHalt)
		}
		ps.data = moveTo(bin.Text, off, ps.data)
		gap = off + len(ps.data)
		bin.Sections = append(bin.Sections, objfile.PlacedSection{
			Name: ps.sec.Name, Kind: objfile.SecText, Addr: ps.addr, Size: int64(len(ps.data)),
		})
	}
	place := func(group []*placedSec, out *[]byte, base *uint64) {
		if len(group) == 0 {
			return
		}
		*base = group[0].addr
		last := group[len(group)-1]
		*out = make([]byte, last.addr+uint64(len(last.data))-*base)
		for _, ps := range group {
			ps.data = moveTo(*out, int(ps.addr-*base), ps.data)
			bin.Sections = append(bin.Sections, objfile.PlacedSection{
				Name: ps.sec.Name, Kind: ps.sec.Kind, Addr: ps.addr, Size: int64(len(ps.data)),
			})
		}
	}
	place(ld.rodata, &bin.Rodata, &bin.RodataBase)
	place(ld.data, &bin.Data, &bin.DataBase)
	for _, ps := range ld.bss {
		bin.BSSSize += ps.sec.Size
		bin.Sections = append(bin.Sections, objfile.PlacedSection{
			Name: ps.sec.Name, Kind: objfile.SecBSS, Addr: ps.addr, Size: ps.sec.Size,
		})
	}
	bin.LSDA = concat(ld.lsdas)
	bin.Debug = concat(ld.debugs)
	if err := ld.applyRelocs(true); err != nil {
		return nil, err
	}
	if len(ld.rodata) == 0 {
		bin.RodataBase = align(ld.textEnd(), objfile.PageSize)
	}
	if len(ld.data) == 0 {
		bin.DataBase = bin.RodataBase + align(uint64(len(bin.Rodata)), objfile.PageSize)
	}

	// Final symbol table. Function symbol sizes reflect relaxation shrink.
	names := make([]string, 0, len(ld.syms))
	for name := range ld.syms {
		names = append(names, name)
	}
	sort.Strings(names)
	bin.Symbols = make([]objfile.FinalSym, 0, len(names))
	for _, name := range names {
		def := ld.syms[name]
		if !def.sec.Kind.Loaded() {
			continue
		}
		addr := def.ps.addr + uint64(def.off)
		size := def.size
		if def.off == 0 && def.size == def.sec.Size && (def.kind == objfile.SymFunc || def.kind == objfile.SymFuncPart) {
			size = int64(len(def.ps.data))
		}
		bin.Symbols = append(bin.Symbols, objfile.FinalSym{
			Name: name, Kind: def.kind, Addr: addr, Size: size,
		})
	}

	// Entry point.
	entry, ok := ld.symAddr(ld.cfg.Entry)
	if !ok {
		return nil, fmt.Errorf("linker: undefined entry symbol %q", ld.cfg.Entry)
	}
	bin.Entry = entry

	// Merge metadata.
	if ld.cfg.EmitAddrMap {
		m, err := bbaddrmap.Splice(ld.addrMaps)
		if err != nil {
			return nil, fmt.Errorf("linker: %w", err)
		}
		bin.BBAddrMap = m
	}
	bin.EHFrame = concat(ld.ehframes)
	if ld.cfg.RetainRelocs {
		bin.HasRelocInfo = true
		var n int64
		for _, group := range [][]*placedSec{ld.text, ld.rodata, ld.data} {
			for _, ps := range group {
				for _, r := range ps.relocs {
					bin.Relas = append(bin.Relas, objfile.FinalReloc{
						Addr: ps.addr + uint64(r.Off), Type: r.Type, Sym: r.Sym, Addend: r.Addend,
					})
				}
			}
		}
		for _, group := range [][]*placedSec{ld.lsdas, ld.debugs} {
			for _, ps := range group {
				n += int64(len(ps.relocs)) * objfile.RelPC32.Size()
			}
		}
		n += int64(len(bin.Relas)) * objfile.RelPC32.Size()
		bin.RelaBytes = n
	}
	bin.BuildID = bin.ComputeBuildID()
	return bin, nil
}

// concat returns the sections' bytes back to back, or nil when there are
// none; each section's bytes are its place in the result from then on.
func concat(group []*placedSec) []byte {
	n := 0
	for _, ps := range group {
		n += len(ps.data)
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	off := 0
	for _, ps := range group {
		ps.data = moveTo(out, off, ps.data)
		off += len(ps.data)
	}
	return out
}

// moveTo copies data to out at off and returns its new place there,
// capacity-clamped so a patch of one section cannot reach the next.
func moveTo(out []byte, off int, data []byte) []byte {
	end := off + copy(out[off:], data)
	return out[off:end:end]
}

// addrMaps hands every retained BB address map fragment to yield, with the
// final address of its text section and the tail bytes relaxation removed
// from that section, for bbaddrmap.Splice to move and trim its functions by.
func (ld *linkState) addrMaps(yield func(bbaddrmap.Fragment) error) error {
	for _, ps := range ld.maps {
		if ld.cfg.KeepMapFor != nil && !ld.cfg.KeepMapFor(ps.obj.Name) {
			continue
		}
		name := ps.sec.Name
		sym, ok := strings.CutPrefix(name, ".llvm_bb_addr_map.")
		if !ok || sym == "" {
			return fmt.Errorf("malformed address map section name %q", name)
		}
		def, ok := ld.syms[sym]
		if !ok || def.ps == nil {
			return fmt.Errorf("address map for unknown fragment %q", sym)
		}
		if err := yield(bbaddrmap.Fragment{Name: name, Data: ps.sec.Data, Base: def.ps.addr, Trim: uint64(def.ps.shrink)}); err != nil {
			return err
		}
	}
	return nil
}

func (ld *linkState) stats(bin *objfile.Binary) *Stats {
	st := &Stats{
		InputBytes:     ld.inputBytes,
		TextSections:   len(ld.text),
		JumpsDeleted:   ld.relaxStats.deleted,
		BranchesShrunk: ld.relaxStats.shrunk,
		BytesSaved:     ld.relaxStats.saved,
	}
	st.OutputBytes = int64(len(bin.Text)+len(bin.Rodata)+len(bin.Data)+len(bin.BBAddrMap)+len(bin.EHFrame)+len(bin.LSDA)) + bin.RelaBytes
	st.PeakMemory = 2*st.InputBytes + st.OutputBytes
	return st
}
