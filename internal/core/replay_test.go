package core_test

import (
	"reflect"
	"slices"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/prefetch"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// pipelineRun is what TestOptimizeMatchesPhasedReplay compares between
// core.Optimize and the exported-phase replay.
type pipelineRun struct {
	PM, PO         string // build IDs
	Phase2, Phase4 core.PhaseStats
	HotReused      int
	Obj, IR        [3]int64 // Hits, Misses, RemoteFetches

	// Phase 3, which Optimize runs as a pipeline and the replay as two
	// calls: the profile sample for sample, the training run's counters, and
	// everything the analysis decided or counted.
	Profile    *profile.Profile
	TrainRun   *sim.Result
	Directives layoutfile.Directives
	Order      layoutfile.SymbolOrder
	Prefetch   prefetch.Directives
	WPAStats   wpa.Stats
	Phase3Cost float64
	Phase3Mem  int64
}

// counted strips what wpa.Stats measures with a clock, and the aggregation
// worker count, which only the in-memory builder clamps to the sample count.
func counted(st wpa.Stats) wpa.Stats {
	st.Workers = 0
	st.AggregateWall, st.MergeWall, st.LayoutWall, st.AnalysisSeconds = 0, 0, 0, 0
	return st
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
// Relink): same binaries, same profile, same layout, same modeled phase
// costs, same cache traffic, cold and warm, on unbounded caches and on a
// tiered cache whose 4KB local tier evicts almost everything, with and
// without inter-procedural layout, path cloning and §3.5 prefetching.
// Optimize overlaps the profiling run with aggregation where the replay
// finishes one before it starts the other. Optimize takes its IR keys from
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
		prof, run, err := core.CollectProfile(meta.Binary, train, opts.SoftwarePrefetch)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := core.Analyze(meta.Binary, prof, opts)
		if err != nil {
			t.Fatal(err)
		}
		var pfd prefetch.Directives
		if opts.SoftwarePrefetch {
			m, err := bbaddrmap.Decode(meta.Binary.BBAddrMap)
			if err != nil {
				t.Fatal(err)
			}
			pfd = prefetch.Analyze(m, run.LoadMisses, opts.PrefetchConfig)
		}
		po, _, _, err := core.Relink(p, irKeys, wres, core.WithPrefetchDirectives(opts, pfd))
		if err != nil {
			t.Fatal(err)
		}
		return pipelineRun{
			PM: meta.Binary.BuildID, PO: po.Binary.BuildID,
			Phase2: phaseStats(meta), Phase4: phaseStats(po), HotReused: po.HotReused,
			Obj: counters(opts.ObjCache), IR: counters(opts.IRCache),
			Profile: prof, TrainRun: run, Directives: wres.Directives, Order: wres.Order, Prefetch: pfd,
			WPAStats: counted(wres.Stats), Phase3Cost: core.Phase3Makespan(wres.Stats, 1), Phase3Mem: wres.Stats.ModeledBytes,
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
			Profile: res.Profile, TrainRun: res.TrainRun, Directives: res.Directives, Order: res.Order, Prefetch: res.PrefetchDirectives,
			WPAStats: counted(res.WPAStats), Phase3Cost: res.Phase3.TotalCost, Phase3Mem: res.Phase3.PeakMem,
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
	pathClone := core.Options{}
	pathClone.WPA.PathClone = true
	// One miss is enough for a site: tiny's few missing loads each miss a
	// handful of times.
	prefetching := core.Options{SoftwarePrefetch: true, PrefetchConfig: prefetch.Config{MinMisses: 1}}
	prefetchingInterProc := prefetching
	prefetchingInterProc.InterProc = true
	for _, prog := range []struct {
		name string
		p    *core.Program
		opts core.Options
	}{
		{"tiny", tiny.Core, core.Options{}},
		{"multimodule", core.MultiModuleProgram(), core.Options{}},
		{"tiny-interproc", tiny.Core, core.Options{InterProc: true}},
		{"tiny-pathclone", tiny.Core, pathClone},
		{"tiny-prefetch", tiny.Core, prefetching},
		{"tiny-interproc-prefetch", tiny.Core, prefetchingInterProc},
	} {
		for _, c := range caches {
			t.Run(prog.name+"/"+c.name, func(t *testing.T) {
				a := prog.opts
				b := a
				a.IRCache, a.ObjCache = c.mk()
				b.IRCache, b.ObjCache = c.mk()
				// Each side's second pass runs against the caches its
				// first pass left behind.
				for _, pass := range []string{"cold", "warm"} {
					got, want := optimize(t, prog.p, a), replay(t, prog.p, b)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: Optimize and the phased replay disagree:\n optimize %+v\n replay   %+v", pass, got, want)
					}
					if a.SoftwarePrefetch && (len(got.Prefetch) == 0 || len(got.TrainRun.LoadMisses) == 0) {
						t.Errorf("%s: %d prefetch sites from %d missing loads; the prefetch arm is vacuous", pass, len(got.Prefetch), len(got.TrainRun.LoadMisses))
					}
					if pass == "warm" && got.HotReused == 0 {
						t.Errorf("warm pass reused no hot objects; the warm arm is vacuous")
					}
				}
			})
		}
	}
}
