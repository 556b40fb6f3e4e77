package codegen

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/testprog"
)

func textSections(o *objfile.Object) []*objfile.Section {
	var out []*objfile.Section
	for _, s := range o.Sections {
		if s.Kind == objfile.SecText {
			out = append(out, s)
		}
	}
	return out
}

func TestModeNoneOneSectionPerFunction(t *testing.T) {
	obj, err := Compile(testprog.Fib(5), Options{Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	secs := textSections(obj)
	if len(secs) != 2 { // fib + main
		t.Fatalf("got %d text sections, want 2", len(secs))
	}
	for _, s := range secs {
		if !strings.HasPrefix(s.Name, ".text.") {
			t.Errorf("section name %q", s.Name)
		}
	}
	if obj.Stats().BBAddrMap != 0 {
		t.Error("ModeNone emitted address maps")
	}
}

func TestModeAllOneSectionPerBlock(t *testing.T) {
	m := testprog.SumLoop(5) // main with 3 blocks
	obj, err := Compile(m, Options{Mode: ModeAll})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(textSections(obj)); got != 3 {
		t.Errorf("got %d text sections, want 3", got)
	}
}

func TestAddrMapPerFragment(t *testing.T) {
	d := layoutfile.Directives{"main": {Clusters: [][]int{{0, 1}}}}
	obj, err := Compile(testprog.SumLoop(5), Options{Mode: ModeList, Directives: d})
	if err != nil {
		t.Fatal(err)
	}
	var maps int
	for _, s := range obj.Sections {
		if s.Kind == objfile.SecBBAddrMap {
			maps++
			mp, err := bbaddrmap.Decode(s.Data)
			if err != nil {
				t.Fatal(err)
			}
			if len(mp.Funcs) != 1 || mp.Funcs[0].Name != "main" {
				t.Errorf("map fragment %q: %+v", s.Name, mp.Funcs)
			}
		}
	}
	if maps != 2 { // primary + cold
		t.Errorf("got %d map fragments, want 2", maps)
	}
	if obj.Symbol("main.cold") == nil {
		t.Error("no cold part symbol")
	}
}

func TestDirectiveValidation(t *testing.T) {
	cases := []struct {
		name string
		d    layoutfile.Directives
		want string
	}{
		{"entry not first", layoutfile.Directives{"main": {Clusters: [][]int{{1, 0}}}}, "must start with entry"},
		{"unknown block", layoutfile.Directives{"main": {Clusters: [][]int{{0, 99}}}}, "unknown block"},
		{"duplicate block", layoutfile.Directives{"main": {Clusters: [][]int{{0, 1}, {1}}}}, "multiple clusters"},
		{"empty", layoutfile.Directives{"main": {Clusters: [][]int{}}}, "empty cluster"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(testprog.SumLoop(5), Options{Mode: ModeList, Directives: c.d})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestFDEPerFragment(t *testing.T) {
	obj, err := Compile(testprog.SumLoop(5), Options{Mode: ModeAll})
	if err != nil {
		t.Fatal(err)
	}
	eh := obj.Section(".eh_frame.sumloop")
	if eh == nil {
		t.Fatal("no eh_frame section")
	}
	names, err := DecodeEHFrame(eh.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(textSections(obj)) {
		t.Errorf("%d FDEs for %d fragments", len(names), len(textSections(obj)))
	}
	// Clustering (§4.4): ModeAll must cost more eh_frame bytes than
	// single-section mode.
	objNone, err := Compile(testprog.SumLoop(5), Options{Mode: ModeNone})
	if err != nil {
		t.Fatal(err)
	}
	if objNone.Stats().EHFrame >= obj.Stats().EHFrame {
		t.Errorf("per-block sections did not grow eh_frame: %d vs %d",
			objNone.Stats().EHFrame, obj.Stats().EHFrame)
	}
}

func TestRelaxMarkersOnTailBranches(t *testing.T) {
	obj, err := Compile(testprog.SumLoop(5), Options{Mode: ModeAll})
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, s := range textSections(obj) {
		for _, r := range s.Relocs {
			if r.Relax {
				marked++
				if r.Type != objfile.RelPC32 {
					t.Errorf("relax marker on %v reloc", r.Type)
				}
			}
		}
	}
	if marked == 0 {
		t.Error("no relaxable tail branches marked")
	}
}

func TestJumpTablePlacement(t *testing.T) {
	ro, err := Compile(testprog.Switch(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ro.Section(".rodata.main") == nil {
		t.Error("rodata jump table missing")
	}
	if ro.Symbol("main.jt1") == nil {
		t.Error("jump table symbol missing")
	}
	dic, err := Compile(testprog.Switch(4), Options{DataInCode: true})
	if err != nil {
		t.Fatal(err)
	}
	if dic.Section(".rodata.main") != nil {
		t.Error("data-in-code still produced a rodata table")
	}
	// The table bytes live in the text section instead.
	if dic.Stats().Text <= ro.Stats().Text {
		t.Error("data-in-code text not larger")
	}
}

func TestHeuristicSplitCreatesFunctions(t *testing.T) {
	obj, err := Compile(testprog.HotCold(100), Options{HeuristicSplit: true, HeuristicSplitMinBytes: 24})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Symbol("main.split.2") == nil {
		t.Errorf("no split function emitted; symbols: %v", obj.SortedSymbolNames())
	}
}

func TestImmediateOverflowRejected(t *testing.T) {
	m := ir.NewModule("ovf")
	f := m.NewFunc("main", 0)
	f.Entry().Emit(ir.Inst{Op: isa.OpAddI, A: 0, Imm: 1 << 40})
	f.Entry().Halt()
	if _, err := Compile(m, Options{}); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("err = %v", err)
	}
}

func TestClusterSectionsPackTightly(t *testing.T) {
	d := layoutfile.Directives{"main": {Clusters: [][]int{{0, 1}, {2}}}}
	obj, err := Compile(testprog.SumLoop(5), Options{Mode: ModeList, Directives: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range textSections(obj) {
		if s.Name == ".text.main" {
			if s.Align < 16 {
				t.Errorf("primary section align %d", s.Align)
			}
		} else if s.Align != 1 {
			t.Errorf("cluster section %s align %d, want 1", s.Name, s.Align)
		}
	}
}

// chainModule builds funcs functions of blocks blocks, each block ins
// register moves and a conditional branch to the next block or the entry.
func chainModule(funcs, blocks, ins int) *ir.Module {
	m := ir.NewModule("chain")
	for fi := 0; fi < funcs; fi++ {
		f := m.NewFunc("fn_"+string(rune('a'+fi%26))+string(rune('a'+fi/26)), 0)
		for len(f.Blocks) < blocks {
			f.NewBlock()
		}
		for bi, b := range f.Blocks {
			for i := 0; i < ins; i++ {
				b.Emit(ir.Inst{Op: isa.OpMovI, A: 1, Imm: int64(i)})
			}
			if bi+1 < blocks {
				b.Branch(isa.CondLT, f.Blocks[bi+1], f.Blocks[0])
			} else {
				b.Return()
			}
		}
	}
	return m
}

// TestCompileAllocs: the backend builds an object in scratch buffers a
// compiler keeps between modules (Compile takes compilers from a pool) and
// carves it out of eight exact slabs (the Object, its Sections and Symbols
// and their pointer slices, the bytes, the relocations and the names), so
// what a compiler allocates per module is constant: 64 functions against
// 8, three sections per function against one, 256 blocks or 128
// instructions per block against 8 and 4, may add only the relocation slab
// cross-section branches need and the doubling of the hash tables Verify
// and Validate fill with the module's names — at most 2 + 2·log2 of the
// growth.
func TestCompileAllocs(t *testing.T) {
	cg := new(compiler)
	allocs := func(funcs, blocks, ins int, opts Options) float64 {
		m := chainModule(funcs, blocks, ins)
		return testing.AllocsPerRun(10, func() {
			if _, err := cg.compile(m, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	dirs := layoutfile.Directives{}
	for _, f := range chainModule(64, 256, 1).Funcs {
		dirs[f.Name] = layoutfile.ClusterSpec{Clusters: [][]int{{0, 2, 1}, {5, 4}}}
	}
	labels, list := Options{Mode: ModeLabels}, Options{Mode: ModeList, Directives: dirs}
	base := allocs(8, 8, 4, labels)
	for _, c := range []struct {
		what   string
		got    float64
		growth float64
	}{
		{"64 functions", allocs(64, 8, 4, labels), 8},
		{"3 sections per function", allocs(8, 8, 4, list), 3},
		{"64 functions of 3 sections", allocs(64, 8, 4, list), 24},
		{"256 blocks per function", allocs(8, 256, 4, labels), 32},
		{"128 instructions per block", allocs(8, 8, 128, labels), 32},
	} {
		t.Logf("%s: %.0f allocations, %.0f for 8 functions of one section", c.what, c.got, base)
		if limit := base + 2 + 2*math.Log2(c.growth); c.got > limit {
			t.Errorf("%s: %.0f allocations, want <= %.0f (%.0f for 8 functions of one section)", c.what, c.got, limit, base)
		}
	}
	if base > 10 {
		t.Errorf("%.0f allocations for 8 small functions, want <= 10", base)
	}
}

// TestStaleNumbering: a function whose Blocks were reordered by hand
// without Func.Renumber does not compile — the verifier Compile runs first
// reports it, naming the function — where indexing per-block state by a
// stale Index() would have lowered the wrong blocks.
func TestStaleNumbering(t *testing.T) {
	m := chainModule(2, 4, 1)
	f := m.Funcs[1]
	f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
	for _, mode := range []Mode{ModeNone, ModeLabels, ModeAll, ModeList} {
		_, err := Compile(m, Options{Mode: mode})
		if err == nil || !strings.Contains(err.Error(), f.Name) || !strings.Contains(err.Error(), "stale block numbering") {
			t.Errorf("%v: Compile of a reordered function: %v", mode, err)
		}
	}
	f.Renumber()
	if _, err := Compile(m, Options{Mode: ModeLabels}); err != nil {
		t.Errorf("Compile after Renumber: %v", err)
	}
}

// TestCompiledSlicesDoNotAlias: a compiled object's sections are runs of
// shared slabs, capacity-clamped, so appending to one section's bytes or
// relocations reallocates them and changes nothing in any other section.
func TestCompiledSlicesDoNotAlias(t *testing.T) {
	obj, err := Compile(chainModule(4, 8, 2), Options{Mode: ModeAll, DebugInfo: true})
	if err != nil {
		t.Fatal(err)
	}
	want := objfile.EncodeObject(obj)
	for _, s := range obj.Sections {
		s.Data = append(s.Data, 0xAA)[:len(s.Data)]
		s.Relocs = append(s.Relocs, objfile.Reloc{Off: 0, Type: objfile.RelAbs64, Sym: "intruder"})[:len(s.Relocs)]
	}
	if !bytes.Equal(objfile.EncodeObject(obj), want) {
		t.Fatal("an append to one compiled section changed another")
	}
}
