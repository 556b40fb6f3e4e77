// Package objfile defines WOF, the relocatable object format produced by
// the backend (internal/codegen) and consumed by the linker
// (internal/linker), plus the final executable format.
//
// WOF mirrors the parts of ELF the paper relies on:
//
//   - named sections the linker treats as indivisible units, so basic block
//     clusters can each live in their own text section (§4);
//   - symbols naming sections at arbitrary granularity, so a symbol
//     ordering file can express global layout;
//   - static relocations deferring branch-target resolution to the linker
//     (§4.2), since a block placed in its own section has no fixed distance
//     to its successors at compile time;
//   - non-loaded metadata sections (the BB address map of §3.2, CFI frame
//     data of §4.4, and LSDA exception tables of §4.5).
package objfile

import (
	"fmt"
	"sort"
	"sync"
)

// SectionKind classifies sections.
type SectionKind byte

const (
	// SecText holds machine code.
	SecText SectionKind = iota
	// SecRodata holds read-only data (jump tables, constants).
	SecRodata
	// SecData holds writable data.
	SecData
	// SecBSS holds zero-initialized writable data (no file bytes).
	SecBSS
	// SecBBAddrMap holds BB address map metadata (not loaded at run time).
	SecBBAddrMap
	// SecEHFrame holds call-frame information records (§4.4).
	SecEHFrame
	// SecLSDA holds exception call-site tables (§4.5).
	SecLSDA
	// SecDebug holds debug range descriptors (§4.3): per code fragment, a
	// DW_AT_ranges-style record with two address relocations (start and
	// end of the fragment), so debuggers can describe functions whose
	// basic blocks are laid out discontiguously.
	SecDebug
)

func (k SectionKind) String() string {
	switch k {
	case SecText:
		return "text"
	case SecRodata:
		return "rodata"
	case SecData:
		return "data"
	case SecBSS:
		return "bss"
	case SecBBAddrMap:
		return "bb_addr_map"
	case SecEHFrame:
		return "eh_frame"
	case SecLSDA:
		return "lsda"
	case SecDebug:
		return "debug"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Loaded reports whether sections of this kind occupy run-time memory.
func (k SectionKind) Loaded() bool {
	switch k {
	case SecBBAddrMap, SecEHFrame, SecLSDA, SecDebug:
		return false
	}
	return true
}

// RelocType identifies how a relocation patches bytes.
type RelocType byte

const (
	// RelPC32 patches the rel32 field of a branch/call instruction at
	// Off (field at Off+1); the displacement anchor is Off+5, the end of
	// the instruction.
	RelPC32 RelocType = iota
	// RelAbs64 patches the imm64 field of a movi64 instruction at Off
	// (field at Off+2) with the absolute address of the target.
	RelAbs64
	// RelAbs64Data patches 8 raw bytes at Off with the absolute address
	// of the target; used for jump-table slots.
	RelAbs64Data
	// RelPC8 patches the rel8 field of a short branch at Off (field at
	// Off+1, anchor Off+2). Produced by linker relaxation when it shrinks
	// a rel32 branch; the backend never emits it directly.
	RelPC8
	// RelCode64 patches 16 raw bytes at Off: an FNV-1a hash over the
	// target symbol's *code* as finally linked (8 bytes, computed over
	// 8-byte little-endian words), followed by the hashed code size in
	// bytes (8 bytes). It models FIPS-140-2 style integrity snapshots
	// (§5.8): the build bakes a digest of the module's code into data and
	// startup re-hashes the running code. Relinking re-resolves the
	// digest; binary rewriting silently breaks it.
	RelCode64
)

// FNV-1a parameters used by RelCode64 digests.
const (
	FNVOffsetBasis = uint64(14695981039346656037)
	FNVPrime       = uint64(1099511628211)
)

// CodeHash computes the RelCode64 digest of a code byte slice: FNV-1a over
// floor(len/8) little-endian 64-bit words.
func CodeHash(code []byte) uint64 {
	h := FNVOffsetBasis
	for i := 0; i+8 <= len(code); i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(code[i+j]) << (8 * j)
		}
		h ^= w
		h *= FNVPrime
	}
	return h
}

func (t RelocType) String() string {
	switch t {
	case RelPC32:
		return "PC32"
	case RelAbs64:
		return "ABS64"
	case RelAbs64Data:
		return "ABS64DATA"
	case RelPC8:
		return "PC8"
	case RelCode64:
		return "CODE64"
	}
	return fmt.Sprintf("reloc(%d)", byte(t))
}

// Size returns the on-disk size of one relocation record; used for the
// Fig-6 section size accounting (.rela).
func (t RelocType) Size() int64 { return 24 } // like Elf64_Rela

// Reloc is a relocation against a section's bytes.
type Reloc struct {
	Off    int64 // offset within the section of the patched instruction/slot
	Type   RelocType
	Sym    string // target symbol
	Addend int64

	// Relax marks branch sites the linker's relaxation pass may rewrite
	// (fall-through deletion, rel32→rel8 shrinking). The backend sets it on
	// section-tail branches, mirroring RISC-V's R_RISCV_RELAX marker.
	Relax bool
}

// Section is a contiguous byte range the linker places as a unit.
type Section struct {
	Name   string // e.g. ".text.foo", ".text.foo.cold", ".rodata.m3"
	Kind   SectionKind
	Data   []byte
	Size   int64 // == len(Data) except for SecBSS
	Align  int64 // required alignment, power of two, >= 1
	Relocs []Reloc
}

// SymKind classifies symbols.
type SymKind byte

const (
	// SymFunc names a function entry (primary cluster section start).
	SymFunc SymKind = iota
	// SymFuncPart names a non-primary basic-block cluster section
	// (foo.cold, foo.1, ...).
	SymFuncPart
	// SymObject names a data object.
	SymObject
	// SymBlock names an individual basic block (label granularity).
	SymBlock
)

func (k SymKind) String() string {
	switch k {
	case SymFunc:
		return "func"
	case SymFuncPart:
		return "funcpart"
	case SymObject:
		return "object"
	case SymBlock:
		return "block"
	}
	return fmt.Sprintf("sym(%d)", byte(k))
}

// Symbol names a location within a section.
type Symbol struct {
	Name    string
	Kind    SymKind
	Section int   // index into Object.Sections
	Off     int64 // offset within the section
	Size    int64
	Global  bool // visible across objects
}

// Object is one relocatable object file.
type Object struct {
	Name     string // producing module name
	Sections []*Section
	Symbols  []*Symbol
}

// Section returns the section with the given name, or nil.
func (o *Object) Section(name string) *Section {
	for _, s := range o.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Symbol returns the symbol with the given name, or nil.
func (o *Object) Symbol(name string) *Symbol {
	for _, s := range o.Symbols {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// AddSection appends a section and returns its index.
func (o *Object) AddSection(s *Section) int {
	if s.Align <= 0 {
		s.Align = 1
	}
	if s.Kind != SecBSS {
		s.Size = int64(len(s.Data))
	}
	o.Sections = append(o.Sections, s)
	return len(o.Sections) - 1
}

// AddSymbol appends a symbol.
func (o *Object) AddSymbol(s *Symbol) { o.Symbols = append(o.Symbols, s) }

// SizeStats aggregates on-disk byte counts by logical category; the Fig-6
// breakdown is computed from these.
type SizeStats struct {
	Text      int64
	EHFrame   int64
	BBAddrMap int64
	Relocs    int64
	Other     int64 // rodata, data, lsda, symbol table
}

// Total returns the summed size of all categories.
func (s SizeStats) Total() int64 {
	return s.Text + s.EHFrame + s.BBAddrMap + s.Relocs + s.Other
}

// Stats computes the size breakdown of the object.
func (o *Object) Stats() SizeStats {
	var st SizeStats
	for _, sec := range o.Sections {
		sz := sec.Size
		switch sec.Kind {
		case SecText:
			st.Text += sz
		case SecEHFrame:
			st.EHFrame += sz
		case SecBBAddrMap:
			st.BBAddrMap += sz
		default:
			st.Other += sz
		}
		st.Relocs += int64(len(sec.Relocs)) * RelPC32.Size()
	}
	for _, sym := range o.Symbols {
		st.Other += int64(len(sym.Name)) + 24 // Elf64_Sym + name
	}
	return st
}

// Validate checks internal consistency: section indices in range, symbol
// offsets within their sections, relocation offsets within section data,
// symbol names unique. It runs on every object a compile emits, a decode
// returns and a link reads, so its duplicate-name set is recycled, not
// allocated per call.
func (o *Object) Validate() error {
	for i, sec := range o.Sections {
		if sec.Align < 1 || sec.Align&(sec.Align-1) != 0 {
			return fmt.Errorf("objfile: %s section %d (%s): bad alignment %d", o.Name, i, sec.Name, sec.Align)
		}
		if sec.Kind != SecBSS && sec.Size != int64(len(sec.Data)) {
			return fmt.Errorf("objfile: %s section %s: size %d != data %d", o.Name, sec.Name, sec.Size, len(sec.Data))
		}
		for _, r := range sec.Relocs {
			if r.Off < 0 || r.Off >= sec.Size {
				return fmt.Errorf("objfile: %s section %s: reloc offset %d out of range", o.Name, sec.Name, r.Off)
			}
			if r.Sym == "" {
				return fmt.Errorf("objfile: %s section %s: reloc with empty symbol", o.Name, sec.Name)
			}
		}
	}
	names, _ := nameSets.Get().(map[string]struct{})
	if names == nil {
		names = make(map[string]struct{}, len(o.Symbols))
	}
	defer func() {
		// Emptying a map costs its capacity, so a huge one is dropped.
		if len(names) <= 1024 {
			clear(names)
			nameSets.Put(names)
		}
	}()
	for _, sym := range o.Symbols {
		if sym.Section < 0 || sym.Section >= len(o.Sections) {
			return fmt.Errorf("objfile: %s symbol %s: section index %d out of range", o.Name, sym.Name, sym.Section)
		}
		sec := o.Sections[sym.Section]
		if sym.Off < 0 || sym.Off > sec.Size {
			return fmt.Errorf("objfile: %s symbol %s: offset %d outside section %s", o.Name, sym.Name, sym.Off, sec.Name)
		}
		if _, dup := names[sym.Name]; dup {
			return fmt.Errorf("objfile: %s: duplicate symbol %s", o.Name, sym.Name)
		}
		names[sym.Name] = struct{}{}
	}
	return nil
}

// nameSets recycles Validate's symbol-name sets, emptied before reuse.
var nameSets sync.Pool

// SortedSymbolNames returns all symbol names in sorted order (testing aid).
func (o *Object) SortedSymbolNames() []string {
	names := make([]string, len(o.Symbols))
	for i, s := range o.Symbols {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
