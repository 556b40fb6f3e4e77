package linker

import (
	"fmt"
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/testprog"
)

func compile(t *testing.T, m *ir.Module, opts codegen.Options) *objfile.Object {
	t.Helper()
	obj, err := codegen.Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestTextBaseAndSectionOrder(t *testing.T) {
	obj := compile(t, testprog.Fib(5), codegen.Options{})
	bin, _, err := Link([]*objfile.Object{obj}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bin.TextBase != objfile.DefaultTextBase {
		t.Errorf("text base %#x", bin.TextBase)
	}
	// Input order preserved without an ordering file: fib before main.
	fib, _ := bin.SymbolByName("fib")
	main, _ := bin.SymbolByName("main")
	if fib.Addr >= main.Addr {
		t.Errorf("default order broken: fib %#x, main %#x", fib.Addr, main.Addr)
	}
	if bin.Entry != main.Addr {
		t.Errorf("entry %#x != main %#x", bin.Entry, main.Addr)
	}
}

func TestOrderingFilePlacesListedFirst(t *testing.T) {
	obj := compile(t, testprog.Fib(5), codegen.Options{})
	order := &layoutfile.SymbolOrder{Symbols: []string{"main", "ghost", "fib"}}
	bin, _, err := Link([]*objfile.Object{obj}, Config{Order: order})
	if err != nil {
		t.Fatal(err)
	}
	fib, _ := bin.SymbolByName("fib")
	main, _ := bin.SymbolByName("main")
	if main.Addr >= fib.Addr {
		t.Errorf("ordering file ignored: main %#x, fib %#x", main.Addr, fib.Addr)
	}
}

func TestRelaxationStatsAndEquivalence(t *testing.T) {
	obj := compile(t, testprog.SumLoop(100), codegen.Options{Mode: codegen.ModeAll})
	_, stRelax, err := Link([]*objfile.Object{obj}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	binNo, stNo, err := Link([]*objfile.Object{obj}, Config{NoRelax: true})
	if err != nil {
		t.Fatal(err)
	}
	if stRelax.BytesSaved == 0 {
		t.Error("relaxation saved nothing on per-block sections")
	}
	if stNo.BytesSaved != 0 {
		t.Error("NoRelax reported savings")
	}
	binRelax, _, _ := Link([]*objfile.Object{obj}, Config{})
	if len(binRelax.Text) >= len(binNo.Text) {
		t.Errorf("relaxed text %d not smaller than unrelaxed %d", len(binRelax.Text), len(binNo.Text))
	}
}

func TestAddrMapSizesShrinkWithRelaxation(t *testing.T) {
	obj := compile(t, testprog.SumLoop(100), codegen.Options{Mode: codegen.ModeAll})
	bin, st, err := Link([]*objfile.Object{obj}, Config{EmitAddrMap: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.JumpsDeleted == 0 {
		t.Skip("no deletions on this layout")
	}
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	// Every block range must lie inside the text segment and match the
	// placed section sizes (the tail fixup keeps the map truthful).
	lk := bbaddrmap.NewLookup(m)
	for _, fe := range m.Funcs {
		for _, b := range fe.Blocks {
			start := fe.Addr + b.Offset
			end := start + b.Size
			if start < bin.TextBase || end > bin.TextEnd() {
				t.Fatalf("block %s/%d range [%#x,%#x) outside text", fe.Name, b.ID, start, end)
			}
			if b.Size > 0 {
				bi := lk.BlockAt(start)
				if bi == bbaddrmap.NoBlock || lk.FuncNames()[lk.Blocks()[bi].Fn] != fe.Name || lk.Blocks()[bi].ID != b.ID {
					t.Fatalf("self-resolution failed for %s/%d", fe.Name, b.ID)
				}
			}
		}
	}
}

func TestPCRelRangeError(t *testing.T) {
	// A call target placed >2GB away must fail loudly. Construct a fake
	// object with an absurd alignment gap.
	obj := &objfile.Object{Name: "far"}
	callerCode := make([]byte, 5)
	callerCode[0] = 0x40 // OpCall
	ci := obj.AddSection(&objfile.Section{
		Name: ".text.main", Kind: objfile.SecText, Align: 16,
		Data:   callerCode,
		Relocs: []objfile.Reloc{{Off: 0, Type: objfile.RelPC32, Sym: "far_away"}},
	})
	obj.AddSymbol(&objfile.Symbol{Name: "main", Kind: objfile.SymFunc, Section: ci, Size: 5, Global: true})
	ti := obj.AddSection(&objfile.Section{
		Name: ".text.far", Kind: objfile.SecText, Align: 1 << 33,
		Data: []byte{0x00},
	})
	obj.AddSymbol(&objfile.Symbol{Name: "far_away", Kind: objfile.SymFunc, Section: ti, Size: 1, Global: true})
	_, _, err := Link([]*objfile.Object{obj}, Config{})
	if err == nil || !strings.Contains(err.Error(), "rel32") {
		t.Errorf("err = %v", err)
	}
}

func TestMergedMetadata(t *testing.T) {
	lib, app := testprog.CrossModule()
	o1 := compile(t, lib, codegen.Options{Mode: codegen.ModeLabels})
	o2 := compile(t, app, codegen.Options{Mode: codegen.ModeLabels})
	bin, _, err := Link([]*objfile.Object{o1, o2}, Config{EmitAddrMap: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range m.Funcs {
		names[f.Name] = true
	}
	if !names["add3"] || !names["main"] {
		t.Errorf("merged map missing functions: %v", names)
	}
	if len(bin.EHFrame) == 0 {
		t.Error("eh_frame not merged")
	}
}

func TestKeepMapForFilters(t *testing.T) {
	lib, app := testprog.CrossModule()
	o1 := compile(t, lib, codegen.Options{Mode: codegen.ModeLabels})
	o2 := compile(t, app, codegen.Options{Mode: codegen.ModeLabels})
	bin, _, err := Link([]*objfile.Object{o1, o2}, Config{
		EmitAddrMap: true,
		KeepMapFor:  func(obj string) bool { return obj == "app" },
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		if f.Name == "add3" {
			t.Error("filtered object's map retained")
		}
	}
}

func TestBSSPlacement(t *testing.T) {
	obj := &objfile.Object{Name: "bss"}
	code := []byte{byte(0x00)} // halt
	ci := obj.AddSection(&objfile.Section{Name: ".text.main", Kind: objfile.SecText, Align: 16, Data: code})
	obj.AddSymbol(&objfile.Symbol{Name: "main", Kind: objfile.SymFunc, Section: ci, Size: 1, Global: true})
	bi := obj.AddSection(&objfile.Section{Name: ".bss.buf", Kind: objfile.SecBSS, Align: 8, Size: 4096})
	obj.AddSymbol(&objfile.Symbol{Name: "buf", Kind: objfile.SymObject, Section: bi, Size: 4096, Global: true})
	bin, _, err := Link([]*objfile.Object{obj}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if bin.BSSSize != 4096 {
		t.Errorf("BSSSize = %d", bin.BSSSize)
	}
	sym, ok := bin.SymbolByName("buf")
	if !ok || sym.Addr < bin.DataBase {
		t.Errorf("buf at %#x, data base %#x", sym.Addr, bin.DataBase)
	}
}

// chainObjects is objs objects of funcs functions each, every function a
// call to the next of its object, compiled with address maps.
func chainObjects(t *testing.T, objs, funcs int) []*objfile.Object {
	var out []*objfile.Object
	for oi := 0; oi < objs; oi++ {
		m := ir.NewModule(fmt.Sprintf("m%d", oi))
		for fi := 0; fi < funcs; fi++ {
			f := m.NewFunc(fmt.Sprintf("f%d_%d", oi, fi), 0)
			f.Entry().Emit(ir.Inst{Op: isa.OpCall, Sym: fmt.Sprintf("f%d_%d", oi, (fi+1)%funcs)})
			f.Entry().Return()
		}
		out = append(out, compile(t, m, codegen.Options{Mode: codegen.ModeLabels}))
	}
	return out
}

// TestLinkCollectAllocs: collect allocates four slabs per object (placed
// sections, symbol definitions, the private copies of the section bytes
// and of the relocations) plus the symbol table and the per-kind section
// lists, which grow by doubling — nothing per section or per symbol.
func TestLinkCollectAllocs(t *testing.T) {
	allocs := func(objs []*objfile.Object) float64 {
		return testing.AllocsPerRun(10, func() {
			ld := &linkState{}
			if err := ld.collect(objs); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(chainObjects(t, 8, 4)), allocs(chainObjects(t, 8, 64))
	// Sixteen times the sections and symbols: only the symbol table and
	// the lists' doubling may grow, by a constant and a logarithm.
	if few > 8*4+40 || many > few+40 {
		t.Errorf("collect of 8 objects: %.0f allocations with 4 functions each, %.0f with 64", few, many)
	}
}

// TestLinkAllocs: a whole link that keeps every address map allocates per
// object and per output table, never per fragment — the maps are spliced,
// not decoded. Sixteen times the fragments per object may add only the
// hash tables that grow with the symbols (Validate's name set per object,
// the link's symbol table): at most 4 allocations per object.
func TestLinkAllocs(t *testing.T) {
	allocs := func(objs []*objfile.Object) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := Link(objs, Config{Entry: "f0_0", EmitAddrMap: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(chainObjects(t, 8, 4)), allocs(chainObjects(t, 8, 64))
	if many > few+8*4 {
		t.Errorf("link of 8 objects: %.0f allocations with 4 functions each, %.0f with 64", few, many)
	}
}
