package objfile

import "propeller/internal/wire"

// The object decoder as it was before it read into slabs, kept verbatim as
// the oracle of TestDecodeObjectMatchesReference: one Section, one Symbol
// and an append-grown relocation list per element.

// RefDecodeObject hands the reference to the external tests (package
// objfile_test), which may import codegen and workload.
var RefDecodeObject = refDecodeObject

// refDecodeObject parses an object file produced by EncodeObject.
func refDecodeObject(data []byte) (*Object, error) {
	r := wire.NewReader("objfile", objMagic, data)
	o := &Object{Name: r.Str()}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		s := &Section{Name: r.Str(), Kind: SectionKind(r.Byte()), Size: r.I64(), Align: r.I64(), Data: r.Bytes()}
		for j, nRel := 0, r.Count(); j < nRel && r.Err() == nil; j++ {
			s.Relocs = append(s.Relocs, Reloc{
				Off: r.I64(), Type: RelocType(r.Byte()), Sym: r.Str(), Addend: r.I64(), Relax: r.Bool(),
			})
		}
		o.Sections = append(o.Sections, s)
	}
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		o.Symbols = append(o.Symbols, &Symbol{
			Name: r.Str(), Kind: SymKind(r.Byte()), Section: r.Int(), Off: r.I64(), Size: r.I64(), Global: r.Bool(),
		})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}
