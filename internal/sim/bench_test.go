package sim

import (
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/testprog"
)

// BuildModules compiles and links mods; exported so the external tests in
// this directory (package sim_test) share it.
func BuildModules(tb testing.TB, mods []*ir.Module, cg codegen.Options, ld linker.Config) *objfile.Binary {
	tb.Helper()
	var objs []*objfile.Object
	for _, m := range mods {
		obj, err := codegen.Compile(m, cg)
		if err != nil {
			tb.Fatal(err)
		}
		objs = append(objs, obj)
	}
	bin, _, err := linker.Link(objs, ld)
	if err != nil {
		tb.Fatal(err)
	}
	return bin
}

// BenchmarkRun times the interpreter alone on two testprog binaries — a
// call-heavy one (Fib) and a load/store/branch mix (Integrity) — plain,
// sampled (modeled, streamed, and functional as Phase 3's profiling runs
// go), functional, and in the block-trace checking mode; Minst/s is the
// figure to compare.
func BenchmarkRun(b *testing.B) {
	progs := []struct {
		name string
		mods []*ir.Module
	}{
		{"fib", []*ir.Module{testprog.Fib(24)}},
		{"integrity", []*ir.Module{testprog.Integrity(200_000)}},
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"lbr", Config{LBRPeriod: 211}},
		{"stream", Config{LBRPeriod: 211, OnSample: func(profile.Sample) error { return nil }}},
		{"lbr-functional", Config{LBRPeriod: 211, DisableUarch: true}},
		{"functional", Config{DisableUarch: true}},
		{"trace", Config{DisableUarch: true}},
	}
	for _, pr := range progs {
		p, err := Load(BuildModules(b, pr.mods, codegen.Options{}, linker.Config{}))
		if err != nil {
			b.Fatal(err)
		}
		// The trace runs the same text with its address map.
		pm := BuildModules(b, pr.mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{EmitAddrMap: true})
		traced, err := Load(pm)
		if err != nil {
			b.Fatal(err)
		}
		m, err := bbaddrmap.Decode(pm.BBAddrMap)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cfgs {
			b.Run(pr.name+"/"+c.name, func(b *testing.B) {
				p, cfg := p, c.cfg
				if c.name == "trace" {
					p, cfg.TraceBlocks = traced, bbaddrmap.NewLookup(m)
				}
				var insts uint64
				for i := 0; i < b.N; i++ {
					res, err := p.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					insts += res.Insts
				}
				b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
			})
		}
	}
}

// BenchmarkLoad times Load on a multi-module binary; with page-lazy decode
// it is independent of text size (TestLoadAllocs pins the allocations).
func BenchmarkLoad(b *testing.B) {
	bin := BuildModules(b, testprog.MultiModule(), codegen.Options{}, linker.Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bin); err != nil {
			b.Fatal(err)
		}
	}
}
