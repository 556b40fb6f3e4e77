package core_test

import (
	"slices"
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/workload"
)

// pipelineRun is what TestOptimizeMatchesPhasedReplay compares between
// core.Optimize and the exported-phase replay.
type pipelineRun struct {
	PM, PO         string // build IDs
	Phase2, Phase4 core.PhaseStats
	HotReused      int
	Obj, IR        [3]int64 // Hits, Misses, RemoteFetches
}

func counters(c *buildsys.Cache) [3]int64 {
	st := c.Stats()
	return [3]int64{st.Hits, st.Misses, st.RemoteFetches}
}

func phaseStats(b *core.BuildResult) core.PhaseStats {
	return core.PhaseStats{
		Actions:   b.Exec.Actions + 1,
		TotalCost: b.Backends + b.Linking,
		Makespan:  b.Exec.Makespan + b.Linking,
		PeakMem:   max(b.Exec.PeakActionMem, b.Link.PeakMemory),
	}
}

// TestOptimizeMatchesPhasedReplay holds core.Optimize to the phase
// sequence the benchmark's traced run drives through the exported API
// (BuildWithMetadata → Phase1CacheIR → CollectProfile → Analyze →
// Relink): same binaries, same modeled phase costs, same cache traffic,
// cold and warm, on unbounded caches and on a tiered cache whose 4KB
// local tier evicts almost everything. Optimize takes its IR keys from
// the build; the replay re-runs Phase1CacheIR, whose second Put pass
// reorders a budgeted cache's LRU list — so an LRU-order or
// submission-order difference between the two shows up here as a
// hit/miss/remote-fetch or makespan mismatch.
func TestOptimizeMatchesPhasedReplay(t *testing.T) {
	tiny, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	train := core.RunSpec{MaxInsts: 20_000_000, LBRPeriod: 211}

	replay := func(t *testing.T, p *core.Program, opts core.Options) pipelineRun {
		meta, err := core.BuildWithMetadata(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		irKeys := core.Phase1CacheIR(p, opts.IRCache)
		if !slices.Equal(meta.IRKeys, irKeys) {
			t.Errorf("BuildResult.IRKeys differ from Phase1CacheIR's keys")
		}
		prof, _, err := core.CollectProfile(meta.Binary, train, false)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := core.Analyze(meta.Binary, prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		po, _, _, err := core.Relink(p, irKeys, wres, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pipelineRun{
			PM: meta.Binary.BuildID, PO: po.Binary.BuildID,
			Phase2: phaseStats(meta), Phase4: phaseStats(po), HotReused: po.HotReused,
			Obj: counters(opts.ObjCache), IR: counters(opts.IRCache),
		}
	}
	optimize := func(t *testing.T, p *core.Program, opts core.Options) pipelineRun {
		res, err := core.Optimize(p, train, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pipelineRun{
			PM: res.Metadata.Binary.BuildID, PO: res.Optimized.Binary.BuildID,
			Phase2: res.Phase2, Phase4: res.Phase4, HotReused: res.Optimized.HotReused,
			Obj: counters(opts.ObjCache), IR: counters(opts.IRCache),
		}
	}

	caches := []struct {
		name string
		mk   func() (ir, obj *buildsys.Cache)
	}{
		{"unbounded", func() (ir, obj *buildsys.Cache) { return buildsys.NewCache(), buildsys.NewCache() }},
		{"tiered", func() (ir, obj *buildsys.Cache) {
			r := buildsys.NewRemote()
			return buildsys.NewTieredCache(1<<12, r), buildsys.NewTieredCache(1<<12, r)
		}},
	}
	for _, prog := range []struct {
		name      string
		p         *core.Program
		interProc bool
	}{
		{"tiny", tiny.Core, false},
		{"multimodule", core.MultiModuleProgram(), false},
		{"tiny-interproc", tiny.Core, true},
	} {
		for _, c := range caches {
			t.Run(prog.name+"/"+c.name, func(t *testing.T) {
				a := core.Options{InterProc: prog.interProc}
				b := a
				a.IRCache, a.ObjCache = c.mk()
				b.IRCache, b.ObjCache = c.mk()
				// Each side's second pass runs against the caches its
				// first pass left behind.
				for _, pass := range []string{"cold", "warm"} {
					got, want := optimize(t, prog.p, a), replay(t, prog.p, b)
					if got != want {
						t.Errorf("%s: Optimize and the phased replay disagree:\n optimize %+v\n replay   %+v", pass, got, want)
					}
					if pass == "warm" && got.HotReused == 0 {
						t.Errorf("warm pass reused no hot objects; the warm arm is vacuous")
					}
				}
			})
		}
	}
}
