// Package integration_test exercises the full compile → link → execute
// pipeline across basic-block-section modes, mirroring how Phases 2 and 4
// of the paper build binaries.
package integration_test

import (
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/layoutfile"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/sim"
	"propeller/internal/testprog"
)

func buildAndRun(t *testing.T, mods []*ir.Module, co codegen.Options, lc linker.Config) (*objfile.Binary, *linker.Stats, *sim.Result) {
	t.Helper()
	var objs []*objfile.Object
	for _, m := range mods {
		obj, err := codegen.Compile(m, co)
		if err != nil {
			t.Fatalf("compile %s: %v", m.Name, err)
		}
		objs = append(objs, obj)
	}
	bin, stats, err := linker.Link(objs, lc)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	mach, err := sim.Load(bin)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := mach.Run(sim.Config{MaxInsts: 50_000_000})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return bin, stats, res
}

type fixture struct {
	name string
	mods []*ir.Module
	want int64
}

func fixtures() []fixture {
	lib, app := testprog.CrossModule()
	return []fixture{
		{"sumloop", []*ir.Module{testprog.SumLoop(10)}, 55},
		{"fib", []*ir.Module{testprog.Fib(10)}, 55},
		{"switch", []*ir.Module{testprog.Switch(8)}, 200},
		{"exceptions", []*ir.Module{testprog.Exceptions(9)}, 3006},
		{"globals", []*ir.Module{testprog.Globals()}, 166},
		{"crossmodule", []*ir.Module{lib, app}, 42},
	}
}

func TestPipelineAllModes(t *testing.T) {
	modes := []codegen.Mode{codegen.ModeNone, codegen.ModeLabels, codegen.ModeAll}
	for _, fx := range fixtures() {
		for _, mode := range modes {
			t.Run(fx.name+"/"+mode.String(), func(t *testing.T) {
				_, _, res := buildAndRun(t, fx.mods, codegen.Options{Mode: mode}, linker.Config{})
				if res.Exit != fx.want {
					t.Errorf("exit = %d, want %d", res.Exit, fx.want)
				}
			})
		}
	}
}

func TestPipelineDataInCode(t *testing.T) {
	for _, mode := range []codegen.Mode{codegen.ModeNone, codegen.ModeAll} {
		_, _, res := buildAndRun(t, []*ir.Module{testprog.Switch(8)},
			codegen.Options{Mode: mode, DataInCode: true}, linker.Config{})
		if res.Exit != 200 {
			t.Errorf("mode %v: exit = %d, want 200", mode, res.Exit)
		}
	}
}

func TestPipelineNoRelaxEquivalent(t *testing.T) {
	for _, fx := range fixtures() {
		_, relaxStats, resRelax := buildAndRun(t, fx.mods, codegen.Options{Mode: codegen.ModeAll}, linker.Config{})
		_, noStats, resNo := buildAndRun(t, fx.mods, codegen.Options{Mode: codegen.ModeAll}, linker.Config{NoRelax: true})
		if resRelax.Exit != resNo.Exit {
			t.Errorf("%s: relax changed semantics: %d vs %d", fx.name, resRelax.Exit, resNo.Exit)
		}
		multiBlock := false
		for _, m := range fx.mods {
			for _, f := range m.Funcs {
				if len(f.Blocks) > 1 {
					multiBlock = true
				}
			}
		}
		if multiBlock && relaxStats.BytesSaved == 0 {
			t.Errorf("%s: ModeAll relaxation saved no bytes", fx.name)
		}
		if noStats.BytesSaved != 0 {
			t.Errorf("%s: NoRelax still saved bytes", fx.name)
		}
	}
}

func TestAddrMapPresence(t *testing.T) {
	mods := []*ir.Module{testprog.SumLoop(10)}
	binNone, _, _ := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeNone}, linker.Config{EmitAddrMap: true})
	if binNone.BBAddrMap != nil {
		t.Error("ModeNone binary has an address map")
	}
	binLabels, _, _ := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{EmitAddrMap: true})
	if binLabels.BBAddrMap == nil {
		t.Fatal("ModeLabels binary missing address map")
	}
	m, err := bbaddrmap.Decode(binLabels.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Funcs) != 1 || m.Funcs[0].Name != "main" {
		t.Fatalf("unexpected map funcs: %+v", m.Funcs)
	}
	mainSym, _ := binLabels.SymbolByName("main")
	if m.Funcs[0].Addr != mainSym.Addr {
		t.Errorf("map addr %#x != symbol addr %#x", m.Funcs[0].Addr, mainSym.Addr)
	}
	// Blocks must tile the function: offsets ascending, sizes summing to
	// the symbol size.
	var total uint64
	for _, b := range m.Funcs[0].Blocks {
		total += b.Size
	}
	if total != uint64(mainSym.Size) {
		t.Errorf("block sizes sum to %d, symbol size %d", total, mainSym.Size)
	}
	// Dropping metadata via linker filter.
	binDropped, _, _ := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeLabels},
		linker.Config{EmitAddrMap: true, KeepMapFor: func(string) bool { return false }})
	if binDropped.BBAddrMap != nil {
		t.Error("KeepMapFor filter did not drop the map")
	}
}

func hotColdDirectives() layoutfile.Directives {
	// Blocks: 0 entry, 1 loop, 2 cold, 3 latch, 4 done.
	return layoutfile.Directives{
		"main": {Clusters: [][]int{{0, 1, 3, 4}}},
	}
}

func TestClusterSections(t *testing.T) {
	mods := []*ir.Module{testprog.HotCold(1000)}
	co := codegen.Options{Mode: codegen.ModeList, Directives: hotColdDirectives()}

	binBase, _, resBase := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{EmitAddrMap: true})
	binOpt, _, resOpt := buildAndRun(t, mods, co, linker.Config{EmitAddrMap: true})

	if resBase.Exit != resOpt.Exit {
		t.Fatalf("cluster layout changed semantics: %d vs %d", resBase.Exit, resOpt.Exit)
	}
	cold, ok := binOpt.SymbolByName("main.cold")
	if !ok {
		t.Fatal("main.cold symbol missing")
	}
	if cold.Kind != objfile.SymFuncPart {
		t.Errorf("main.cold kind = %v", cold.Kind)
	}
	if _, ok := binBase.SymbolByName("main.cold"); ok {
		t.Error("baseline binary has a cold part symbol")
	}
	// The cold fragment must resolve back to "main" in the address map.
	m, err := bbaddrmap.Decode(binOpt.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	lk := bbaddrmap.NewLookup(m)
	bi := lk.BlockAt(cold.Addr)
	if bi == bbaddrmap.NoBlock {
		t.Fatal("cold fragment resolves to no block")
	}
	if b := lk.Blocks()[bi]; lk.FuncNames()[b.Fn] != "main" || b.ID != 2 {
		t.Errorf("cold fragment resolves to (%q, %d), want (main, 2)", lk.FuncNames()[b.Fn], b.ID)
	}
}

func TestSymbolOrderingFile(t *testing.T) {
	mods := []*ir.Module{testprog.HotCold(1000)}
	co := codegen.Options{Mode: codegen.ModeList, Directives: hotColdDirectives()}

	// Place the cold part first, primary after: still correct.
	order := &layoutfile.SymbolOrder{Symbols: []string{"main.cold", "main"}}
	bin, _, res := buildAndRun(t, mods, co, linker.Config{Order: order})
	main, _ := bin.SymbolByName("main")
	cold, _ := bin.SymbolByName("main.cold")
	if cold.Addr >= main.Addr {
		t.Errorf("ordering file ignored: main.cold at %#x, main at %#x", cold.Addr, main.Addr)
	}
	_, _, resDefault := buildAndRun(t, mods, co, linker.Config{})
	if res.Exit != resDefault.Exit {
		t.Errorf("ordering changed semantics: %d vs %d", res.Exit, resDefault.Exit)
	}
}

func TestExceptionsAcrossSections(t *testing.T) {
	// Push the landing pad into the implicit cold section and reorder it
	// away from the function: unwinding must still find it.
	// Blocks: main: 0 entry, 1 loop, 2 normal, 3 pad, 4 latch, 5 done.
	d := layoutfile.Directives{
		"main": {Clusters: [][]int{{0, 1, 2, 4, 5}}},
	}
	co := codegen.Options{Mode: codegen.ModeList, Directives: d}
	order := &layoutfile.SymbolOrder{Symbols: []string{"risky", "main", "main.cold"}}
	bin, _, res := buildAndRun(t, []*ir.Module{testprog.Exceptions(9)}, co, linker.Config{Order: order})
	if res.Exit != 3006 {
		t.Errorf("exit = %d, want 3006", res.Exit)
	}
	cold, ok := bin.SymbolByName("main.cold")
	if !ok {
		t.Fatal("main.cold missing")
	}
	// The pad-first cold section begins with the §4.5 nop.
	data, err := bin.ReadText(cold.Addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x01 { // OpNop
		t.Errorf("cold section starting with a landing pad does not begin with nop (got %#02x)", data[0])
	}
}

func TestHeuristicSplit(t *testing.T) {
	mods := []*ir.Module{testprog.HotCold(1000)}
	co := codegen.Options{Mode: codegen.ModeLabels, HeuristicSplit: true, HeuristicSplitMinBytes: 24}
	bin, _, res := buildAndRun(t, mods, co, linker.Config{})
	_, _, resBase := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{})
	if res.Exit != resBase.Exit {
		t.Fatalf("heuristic split changed semantics: %d vs %d", res.Exit, resBase.Exit)
	}
	if _, ok := bin.SymbolByName("main.split.2"); !ok {
		var names []string
		for _, s := range bin.Symbols {
			names = append(names, s.Name)
		}
		t.Fatalf("main.split.2 missing; symbols: %s", strings.Join(names, ", "))
	}
}

func TestIntegritySnapshotSurvivesRelink(t *testing.T) {
	mods := []*ir.Module{testprog.Integrity(10)}
	// Plain build: the check passes, main computes 55.
	_, _, res := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{})
	if res.Exit != 55 {
		t.Fatalf("baseline integrity run: exit = %d, want 55", res.Exit)
	}
	// Relink with a layout that reorders checked_fn and moves its cold
	// block away: the snapshot is re-resolved at link time, so the check
	// must still pass. Blocks: 0 entry, 1 loop, 2 cold, 3 done, 4 ret.
	d := layoutfile.Directives{
		"checked_fn": {Clusters: [][]int{{0, 1, 3, 4}}},
		"main":       {Clusters: [][]int{{0, 1}}},
	}
	order := &layoutfile.SymbolOrder{Symbols: []string{"main", "checked_fn", "checked_fn.cold", "main.cold"}}
	_, _, res = buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeList, Directives: d}, linker.Config{Order: order})
	if res.Exit != 55 {
		t.Fatalf("relinked integrity run: exit = %d, want 55 (snapshot must re-resolve)", res.Exit)
	}
}

func TestLinkerErrors(t *testing.T) {
	lib, app := testprog.CrossModule()
	objLib, err := codegen.Compile(lib, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	objApp, err := codegen.Compile(app, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Undefined symbol: app without lib.
	if _, _, err := linker.Link([]*objfile.Object{objApp}, linker.Config{}); err == nil || !strings.Contains(err.Error(), "undefined symbol") {
		t.Errorf("missing lib: err = %v", err)
	}
	// Duplicate symbol: lib twice.
	if _, _, err := linker.Link([]*objfile.Object{objLib, objLib, objApp}, linker.Config{}); err == nil || !strings.Contains(err.Error(), "duplicate symbol") {
		t.Errorf("duplicate lib: err = %v", err)
	}
	// Missing entry.
	if _, _, err := linker.Link([]*objfile.Object{objLib}, linker.Config{}); err == nil || !strings.Contains(err.Error(), "entry symbol") {
		t.Errorf("missing entry: err = %v", err)
	}
}

func TestHugePagesRun(t *testing.T) {
	mods := []*ir.Module{testprog.SumLoop(100)}
	bin, _, res := buildAndRun(t, mods, codegen.Options{}, linker.Config{HugePages: true})
	if !bin.HugePages {
		t.Error("binary not marked hugepages")
	}
	if bin.TextBase%objfile.HugePageSize != 0 {
		t.Errorf("text base %#x not 2M aligned", bin.TextBase)
	}
	if res.Exit != 5050 {
		t.Errorf("exit = %d", res.Exit)
	}
}

func TestRetainRelocsSizing(t *testing.T) {
	mods := []*ir.Module{testprog.Fib(5)}
	binPlain, _, _ := buildAndRun(t, mods, codegen.Options{}, linker.Config{})
	binRela, _, _ := buildAndRun(t, mods, codegen.Options{}, linker.Config{RetainRelocs: true})
	if binPlain.RelaBytes != 0 {
		t.Error("plain binary retains relocations")
	}
	if binRela.RelaBytes == 0 {
		t.Error("RetainRelocs binary has no relocation bytes")
	}
	if binRela.Stats().Total() <= binPlain.Stats().Total() {
		t.Error("retained relocations did not grow the binary")
	}
}

func TestCountersSanity(t *testing.T) {
	_, _, res := buildAndRun(t, []*ir.Module{testprog.SumLoop(1000)}, codegen.Options{}, linker.Config{})
	c := res.Counters
	if c.TakenBranch == 0 {
		t.Error("no taken branches counted")
	}
	if res.Cycles < res.Insts {
		t.Errorf("cycles %d < insts %d", res.Cycles, res.Insts)
	}
	// A 1000-iteration self-loop must be highly predictable.
	if c.Mispredicts > c.TakenBranch/10 {
		t.Errorf("mispredicts %d too high for a tight loop (taken %d)", c.Mispredicts, c.TakenBranch)
	}
	for label, v := range c.Map() {
		_ = v
		if label == "" {
			t.Error("empty counter label")
		}
	}
}

func TestLBRProfileCollection(t *testing.T) {
	mods := []*ir.Module{testprog.SumLoop(5000)}
	bin, _, _ := buildAndRun(t, mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{EmitAddrMap: true})
	mach, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run(sim.Config{MaxInsts: 10_000_000, LBRPeriod: 101})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil || len(res.Profile.Samples) == 0 {
		t.Fatal("no LBR samples collected")
	}
	agg := res.Profile.Aggregate()
	if len(agg) == 0 {
		t.Fatal("no aggregated edges")
	}
	// The loop back-edge must dominate.
	var best uint64
	for _, w := range agg {
		if w > best {
			best = w
		}
	}
	if best < uint64(len(res.Profile.Samples)) {
		t.Errorf("hottest edge weight %d below sample count %d", best, len(res.Profile.Samples))
	}
	// All sampled addresses must fall inside text.
	for e := range agg {
		if e.From < bin.TextBase || e.From >= bin.TextEnd() {
			t.Fatalf("LBR From %#x outside text", e.From)
		}
		if e.To < bin.TextBase || e.To >= bin.TextEnd() {
			t.Fatalf("LBR To %#x outside text", e.To)
		}
	}
}
