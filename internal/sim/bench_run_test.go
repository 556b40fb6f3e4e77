package sim_test

import (
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/testprog"
	"propeller/internal/workload"
)

// BenchmarkRun times the interpreter alone on four binaries — a call-heavy
// one (Fib), a load/store/branch mix (Integrity), the 505.mcf shape the
// benchmark's profile-deep workload profiles, cut to about 5M instructions,
// and the MySQL shape at the fleet-generation workload's 2 500 requests —
// plain, sampled (modeled, streamed, and functional as Phase 3's profiling
// runs go), functional, and in the block-trace checking mode; Minst/s is
// the figure to compare. mcf's functional and lbr-functional arms are the
// ones Phase 3's profiling run moves with; mysql/plain is the modeled
// evaluation run the service loop makes of its baseline and of every
// candidate. B/op is what a run allocates: 66 KB for a functional run,
// nearly all of it the first 64 KB of the stack it grows on demand (it was
// the whole 1 MB bound before), the timing model's tables besides in a
// modeled one (about 320 KB), and a sampled run's profile.
func BenchmarkRun(b *testing.B) {
	progs := []struct {
		name  string
		build func(b *testing.B) (bin, pm *objfile.Binary)
	}{
		{"fib", testprogBuild(testprog.Fib(24))},
		{"integrity", testprogBuild(testprog.Integrity(200_000))},
		{"mcf", shapeBuild(workload.SPECInt()[2], 9200)},
		{"mysql", shapeBuild(workload.MySQL(), 2500)},
	}
	cfgs := []struct {
		name string
		cfg  sim.Config
	}{
		{"plain", sim.Config{}},
		{"lbr", sim.Config{LBRPeriod: 211}},
		{"stream", sim.Config{LBRPeriod: 211, OnSample: func(profile.Sample) error { return nil }}},
		{"lbr-functional", sim.Config{LBRPeriod: 211, DisableUarch: true}},
		{"functional", sim.Config{DisableUarch: true}},
		{"trace", sim.Config{DisableUarch: true}},
	}
	for _, pr := range progs {
		bin, pm := pr.build(b)
		p, err := sim.Load(bin)
		if err != nil {
			b.Fatal(err)
		}
		// The trace runs the same text with its address map.
		traced, err := sim.Load(pm)
		if err != nil {
			b.Fatal(err)
		}
		m, err := bbaddrmap.Decode(pm.BBAddrMap)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cfgs {
			b.Run(pr.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
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

// testprogBuild links mods plainly, and again with labels and an address
// map for the trace arm.
func testprogBuild(mods ...*ir.Module) func(*testing.B) (*objfile.Binary, *objfile.Binary) {
	return func(b *testing.B) (*objfile.Binary, *objfile.Binary) {
		bin := sim.BuildModules(b, mods, codegen.Options{}, linker.Config{})
		pm := sim.BuildModules(b, mods, codegen.Options{Mode: codegen.ModeLabels}, linker.Config{EmitAddrMap: true})
		return bin, pm
	}
}

// shapeBuild builds a catalog shape at the given request count: its PM
// binary (the one Phase 3 profiles and the service loop first deploys)
// serves every arm. 505.mcf at 9 200 requests is profile-deep's program at
// a tenth of its size.
func shapeBuild(spec workload.Spec, requests int64) func(*testing.B) (*objfile.Binary, *objfile.Binary) {
	return func(b *testing.B) (*objfile.Binary, *objfile.Binary) {
		spec.Requests = requests
		prog, err := workload.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return pm.Binary, pm.Binary
	}
}
