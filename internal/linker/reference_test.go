package linker

import (
	"fmt"
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/isa"
	"propeller/internal/objfile"
	"propeller/internal/testprog"
	"propeller/internal/wire"
)

// The address-map merge as it was before the linker spliced the maps, kept
// verbatim as the oracle of the splice: every kept fragment decoded into a
// Map, rebased by a copy, trimmed, appended into a merged Map and encoded
// once more. rebase is bbaddrmap's Map.Rebase, which went with its last
// caller.

// rebase returns a copy of the map with delta added to every function
// address. The linker uses this when placing sections at final addresses.
func rebase(m *bbaddrmap.Map, delta uint64) *bbaddrmap.Map {
	total := 0
	for i := range m.Funcs {
		total += len(m.Funcs[i].Blocks)
	}
	out := &bbaddrmap.Map{Funcs: make([]bbaddrmap.FuncEntry, len(m.Funcs))}
	blocks := make([]bbaddrmap.BlockEntry, total)
	for i, f := range m.Funcs {
		n := copy(blocks, f.Blocks)
		out.Funcs[i] = bbaddrmap.FuncEntry{Name: f.Name, Addr: f.Addr + delta, Blocks: blocks[:n:n]}
		blocks = blocks[n:]
	}
	return out
}

// mergeAddrMaps decodes every retained BB address map fragment, rebases it
// to the final address of its text section, and fixes the last block's size
// for any tail bytes relaxation removed.
func (ld *linkState) mergeAddrMaps() (*bbaddrmap.Map, error) {
	merged := &bbaddrmap.Map{}
	const prefix = ".llvm_bb_addr_map."
	for _, ps := range ld.maps {
		if ld.cfg.KeepMapFor != nil && !ld.cfg.KeepMapFor(ps.obj.Name) {
			continue
		}
		name := ps.sec.Name
		if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
			return nil, fmt.Errorf("linker: malformed address map section name %q", name)
		}
		symName := name[len(prefix):]
		def, ok := ld.syms[symName]
		if !ok || def.ps == nil {
			return nil, fmt.Errorf("linker: address map for unknown fragment %q", symName)
		}
		m, err := bbaddrmap.Decode(ps.sec.Data)
		if err != nil {
			return nil, fmt.Errorf("linker: %s: %w", name, err)
		}
		m = rebase(m, def.ps.addr)
		if def.ps.shrink > 0 {
			for fi := range m.Funcs {
				blocks := m.Funcs[fi].Blocks
				if len(blocks) == 0 {
					continue
				}
				last := &blocks[len(blocks)-1]
				if uint64(def.ps.shrink) > last.Size {
					last.Size = 0
				} else {
					last.Size -= uint64(def.ps.shrink)
				}
			}
		}
		merged.Funcs = append(merged.Funcs, m.Funcs...)
	}
	if len(merged.Funcs) == 0 {
		return nil, nil
	}
	return merged, nil
}

// refAddrMap is the bin.BBAddrMap the reference merge makes of ld.
func (ld *linkState) refAddrMap() ([]byte, error) {
	merged, err := ld.mergeAddrMaps()
	if merged == nil || err != nil {
		return nil, err
	}
	return bbaddrmap.Encode(merged), nil
}

// RefLinkAddrMap links objs with an address map under cfg and returns the
// binary beside the address map the reference merge makes of the same link
// (for the catalog test in package linker_test, which may import core).
func RefLinkAddrMap(objs []*objfile.Object, cfg Config) (*objfile.Binary, []byte, error) {
	cfg.EmitAddrMap = true
	ld, bin, err := link(objs, cfg)
	if err != nil {
		return nil, nil, err
	}
	ref, err := ld.refAddrMap()
	return bin, ref, err
}

// CheckAddrMapTiles is the structural check on a linked map: every
// function the map keeps starts a placed text section of its name, and its
// blocks tile that section in order — no gap, no overlap, nothing past the
// section's end — after a landing-pad section's leading nop.
func CheckAddrMapTiles(bin *objfile.Binary) error {
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		return err
	}
	text := map[uint64]objfile.PlacedSection{}
	for _, s := range bin.Sections {
		if s.Kind == objfile.SecText {
			text[s.Addr] = s
		}
	}
	for _, f := range m.Funcs {
		sec, ok := text[f.Addr]
		if !ok || !strings.HasPrefix(sec.Name, ".text."+f.Name) {
			return fmt.Errorf("%s at %#x starts no text section of its name (%q)", f.Name, f.Addr, sec.Name)
		}
		at := uint64(0)
		if len(f.Blocks) > 0 && f.Blocks[0].Offset == 1 && bin.Text[f.Addr-bin.TextBase] == byte(isa.OpNop) {
			at = 1
		}
		for _, b := range f.Blocks {
			if b.Offset != at {
				return fmt.Errorf("%s (%s) bb%d at offset %d, want %d", f.Name, sec.Name, b.ID, b.Offset, at)
			}
			at += b.Size
		}
		if at != uint64(sec.Size) {
			return fmt.Errorf("%s (%s): blocks end at %d of a %d-byte section", f.Name, sec.Name, at, sec.Size)
		}
	}
	return nil
}

func TestRebase(t *testing.T) {
	m := &bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "foo", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Size: 16}, {ID: 1, Offset: 16, Size: 8}}},
		{Name: "foo", Addr: 0x4000, Blocks: []bbaddrmap.BlockEntry{{ID: 2, Size: 20}}},
		{Name: "bar", Addr: 0x2000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Size: 5}}},
	}}
	r := rebase(m, 0x1000)
	if r.Funcs[0].Addr != 0x2000 || r.Funcs[2].Addr != 0x3000 {
		t.Error("Rebase did not shift addresses")
	}
	if m.Funcs[0].Addr != 0x1000 {
		t.Error("Rebase mutated the original")
	}
	r.Funcs[0].Blocks[0].Size = 999
	if m.Funcs[0].Blocks[0].Size == 999 {
		t.Error("Rebase shares block slices with the original")
	}
}

// TestSpliceMatchesReferenceWithShrink: on the fixture of
// TestAddrMapSizesShrinkWithRelaxation — every block its own section, so
// relaxation deletes and shrinks section tails and the splice trims — the
// spliced map equals the reference merge's and tiles the text.
func TestSpliceMatchesReferenceWithShrink(t *testing.T) {
	obj := compile(t, testprog.SumLoop(100), codegen.Options{Mode: codegen.ModeAll})
	ld, bin, err := link([]*objfile.Object{obj}, Config{EmitAddrMap: true})
	if err != nil {
		t.Fatal(err)
	}
	shrunk := 0
	for _, ps := range ld.text {
		if ps.shrink > 0 {
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("no section tail was relaxed: the fixture no longer exercises the trim")
	}
	want, err := ld.refAddrMap()
	if err != nil {
		t.Fatal(err)
	}
	if string(bin.BBAddrMap) != string(want) {
		t.Fatalf("spliced map (%d bytes) differs from the reference merge's (%d bytes)", len(bin.BBAddrMap), len(want))
	}
	if err := CheckAddrMapTiles(bin); err != nil {
		t.Fatal(err)
	}
}

// TestMalformedAddrMapsMatchReference: a map section the splice must
// refuse fails the link with the reference merge's error text.
func TestMalformedAddrMapsMatchReference(t *testing.T) {
	w := &wire.Writer{}
	w.Int(1000)
	pastInput := w.Buf
	for _, tc := range []struct {
		name  string
		spoil func(sec *objfile.Section)
	}{
		{"truncated", func(sec *objfile.Section) { sec.Data = sec.Data[:len(sec.Data)-1] }},
		{"trailing byte", func(sec *objfile.Section) { sec.Data = append(sec.Data, 0) }},
		{"count past the input", func(sec *objfile.Section) { sec.Data = pastInput }},
		{"bad section name", func(sec *objfile.Section) { sec.Name = ".llvm_bb_addr_map" }},
		{"unknown fragment", func(sec *objfile.Section) { sec.Name = ".llvm_bb_addr_map.nosuch" }},
	} {
		obj := compile(t, testprog.Fib(5), codegen.Options{Mode: codegen.ModeLabels})
		var sec *objfile.Section
		for _, s := range obj.Sections {
			if s.Kind == objfile.SecBBAddrMap {
				sec = s
			}
		}
		tc.spoil(sec)
		sec.Size = int64(len(sec.Data))
		ld, _, err := link([]*objfile.Object{obj}, Config{EmitAddrMap: true})
		_, want := ld.refAddrMap()
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: link error %v, reference %v", tc.name, err, want)
		}
	}
}
