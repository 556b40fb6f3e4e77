package workload

import (
	"strings"
	"testing"

	"propeller/internal/core"
	"propeller/internal/sim"
)

func runProgram(t *testing.T, b *core.BuildResult, maxInsts uint64) *sim.Result {
	t.Helper()
	mach, err := sim.Load(b.Binary)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run(sim.Config{MaxInsts: maxInsts})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGenerateTiny(t *testing.T) {
	p, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalModules < 2 || p.ColdModules == 0 {
		t.Errorf("modules: total %d cold %d", p.TotalModules, p.ColdModules)
	}
	gotCold := float64(p.ColdModules) / float64(p.TotalModules)
	if gotCold < 0.4 || gotCold > 0.8 {
		t.Errorf("cold fraction %f far from spec 0.6", gotCold)
	}
	if p.TotalBlocks < 60*5 {
		t.Errorf("too few blocks: %d", p.TotalBlocks)
	}
}

func TestTinyRunsDeterministically(t *testing.T) {
	p, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	build, err := core.BuildBaseline(p.Core, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := runProgram(t, build, 80_000_000)
	b := runProgram(t, build, 80_000_000)
	if a.Exit != b.Exit || a.Insts != b.Insts {
		t.Fatalf("nondeterministic run: (%d,%d) vs (%d,%d)", a.Exit, a.Insts, b.Exit, b.Insts)
	}
	if a.Exit == -99 {
		t.Fatal("integrity check failed on a plain build")
	}
	if a.Exit == 0 {
		t.Error("checksum is zero; workload may not be executing its hot path")
	}
	t.Logf("tiny: exit=%d insts=%d cycles=%d ipc=%.2f", a.Exit, a.Insts, a.Cycles, a.IPC())
}

func TestGenerateDeterministicBySeed(t *testing.T) {
	a, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Core.Modules) != len(b.Core.Modules) {
		t.Fatal("module count differs across identical seeds")
	}
	for i := range a.Core.Modules {
		if a.Core.Modules[i].String() != b.Core.Modules[i].String() {
			t.Fatalf("module %d differs across identical seeds", i)
		}
	}
}

// The full pipeline over a generated workload: PGO baseline, then the
// Propeller optimization, all preserving the checksum.
func TestTinyFullPipeline(t *testing.T) {
	p, err := Generate(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	train := core.RunSpec{MaxInsts: 60_000_000, LBRPeriod: 211}
	optimized, pgoStats, err := core.PreparePGO(p.Core, train, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pgoStats.TrainRun.Exit == -99 {
		t.Fatal("integrity check failed during training")
	}
	if pgoStats.Imports.CallsInlined == 0 {
		t.Error("PGO+ThinLTO inlined nothing")
	}
	prog := &core.Program{Name: p.Core.Name, Modules: optimized, Entry: p.Core.Entry}

	base, err := core.BuildBaseline(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseRes := runProgram(t, base, 80_000_000)

	res, err := core.Optimize(prog, train, core.Options{HugePages: p.Spec.HugePages})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.Load(res.Optimized.Binary)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := mach.Run(sim.Config{MaxInsts: 80_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if optRes.Exit != baseRes.Exit {
		t.Fatalf("Propeller changed the checksum: %d vs %d", optRes.Exit, baseRes.Exit)
	}
	if optRes.Exit == -99 {
		t.Fatal("integrity check failed after relinking")
	}
	if res.HotModules == 0 || res.ColdModules == 0 {
		t.Errorf("hot/cold split: %d/%d", res.HotModules, res.ColdModules)
	}
	// Tiny programs are fully cache-resident, so — exactly as §5.4 reports
	// for small SPEC benchmarks — Propeller may regress slightly; only a
	// substantial slowdown indicates a real defect.
	if float64(optRes.Cycles) > 1.05*float64(baseRes.Cycles) {
		t.Errorf("Propeller build much slower: %d vs %d cycles", optRes.Cycles, baseRes.Cycles)
	}
	t.Logf("tiny: base %d cycles, propeller %d cycles (%.2f%% faster), hot %d/%d modules",
		baseRes.Cycles, optRes.Cycles,
		100*(1-float64(optRes.Cycles)/float64(baseRes.Cycles)),
		res.HotModules, res.HotModules+res.ColdModules)
}

// TestSet holds every -set name to its list and refuses an unknown one.
func TestSet(t *testing.T) {
	for name, want := range map[string]int{"all": len(Catalog()), "wsc": 4, "oss": 2, "spec": 8, "smoke": 3, "tiny": 1} {
		specs, err := Set(name)
		if err != nil || len(specs) != want {
			t.Errorf("Set(%q) = %d specs, %v; want %d", name, len(specs), err, want)
		}
	}
	if _, err := Set("bogus"); err == nil {
		t.Error(`Set("bogus") succeeded`)
	}
}

// TestByName resolves every catalog workload and tiny by its name, and
// refuses an unknown one with the known names in its error.
func TestByName(t *testing.T) {
	for _, want := range append(Catalog(), Tiny()) {
		got, err := ByName(want.Name)
		if err != nil || got.Name != want.Name || got.Seed != want.Seed {
			t.Errorf("ByName(%q) = %s (seed %d), %v", want.Name, got.Name, got.Seed, err)
		}
	}
	_, err := ByName("bogus")
	if err == nil {
		t.Fatal(`ByName("bogus") succeeded`)
	}
	for _, name := range []string{`"bogus"`, "clang", "505.mcf", "tiny"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ByName error %q does not name %s", err, name)
		}
	}
}
