package eval

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// IncrementalSweepConfig parameterizes the incremental-build study: replay
// a developer edit of a given size against a warm content-keyed cache and
// compare the warm re-analysis and relink against a cold run of the same
// inputs.
type IncrementalSweepConfig struct {
	// Spec is the workload (default Clang — large enough that a 1% edit
	// leaves a measurable unchanged majority).
	Spec workload.Spec

	// EditFracs are the replayed edit sizes as function fractions
	// (default 0.01, 0.05, 0.20).
	EditFracs []float64

	// Workers are the WPA worker counts to replay each edit under
	// (default 1, 4). Warm results must be byte-identical at every count.
	Workers []int

	// Slots is the modeled build executor width (default 8 — a narrow
	// pool, so a cold relink's hot-module wave dominates the makespan and
	// the warm win shows up as wall time, not just saved cores).
	Slots int

	// TrainInsts bounds the profiling run (default 80M).
	TrainInsts uint64
	// LBRPeriod is the profiling sample period (default 211).
	LBRPeriod uint64
}

func (c IncrementalSweepConfig) spec() workload.Spec {
	if c.Spec.Name == "" {
		return workload.Clang()
	}
	return c.Spec
}

func (c IncrementalSweepConfig) editFracs() []float64 {
	if len(c.EditFracs) == 0 {
		return []float64{0.01, 0.05, 0.20}
	}
	return c.EditFracs
}

func (c IncrementalSweepConfig) workers() []int {
	if len(c.Workers) == 0 {
		return []int{1, 4}
	}
	return c.Workers
}

func (c IncrementalSweepConfig) slots() int {
	if c.Slots <= 0 {
		return 8
	}
	return c.Slots
}

func (c IncrementalSweepConfig) budget() core.Budget {
	return core.Budget{TrainInsts: c.TrainInsts, LBRPeriod: c.LBRPeriod}.
		Or(core.Budget{TrainInsts: 80_000_000, LBRPeriod: 211})
}

// IncrementalCell is one (edit fraction, worker count) point of the
// BENCH_incr.json matrix. All fields except the measured wall times are
// deterministic functions of the workload and config, so the bench
// regression gate can compare them exactly.
type IncrementalCell struct {
	Workload string  `json:"workload"`
	EditFrac float64 `json:"editFrac"`
	Workers  int     `json:"workers"`

	// EditedFuncs is how many functions the replayed edit touched;
	// SampledFuncs is how many functions the profile covers (the universe
	// the per-function layout cache is keyed over).
	EditedFuncs  int `json:"editedFuncs"`
	SampledFuncs int `json:"sampledFuncs"`

	// Warm re-analysis cache accounting.
	FuncLayoutHits   int     `json:"funcLayoutHits"`
	FuncLayoutMisses int     `json:"funcLayoutMisses"`
	HitRate          float64 `json:"hitRate"`
	GlobalCacheHit   bool    `json:"globalCacheHit"`

	// RelaidFuncs is how many functions the warm run re-ran Ext-TSP on;
	// RelaidFrac is that as a fraction of the sampled universe.
	RelaidFuncs int     `json:"relaidFuncs"`
	RelaidFrac  float64 `json:"relaidFrac"`

	// Byte-identity of the warm artifacts and binary against cold.
	IdenticalArtifacts bool `json:"identicalArtifacts"`
	IdenticalBinary    bool `json:"identicalBinary"`

	// Phase-4 accounting: hot modules, how many the warm relink served
	// from the object cache, and the modeled backend makespans (seconds
	// on the modeled executor; the link itself is excluded since both
	// sides pay it identically).
	HotModules          int     `json:"hotModules"`
	HotReused           int     `json:"hotReused"`
	ColdRelinkMakespan  float64 `json:"coldRelinkMakespan"`
	WarmRelinkMakespan  float64 `json:"warmRelinkMakespan"`
	WarmColdRelinkRatio float64 `json:"warmColdRelinkRatio"`

	// Measured wall times. Non-deterministic: the "measured" prefix is
	// what the bench-regression gate keys its exclusion on.
	ColdAnalysisSeconds float64 `json:"measuredColdAnalysisSeconds"`
	WarmAnalysisSeconds float64 `json:"measuredWarmAnalysisSeconds"`
}

// IncrementalResult is the full sweep outcome.
type IncrementalResult struct {
	Workload string            `json:"workload"`
	Slots    int               `json:"slots"`
	Cells    []IncrementalCell `json:"cells"`

	// Stationary is the no-edit replay: re-analyzing the identical binary
	// under the identical profile epoch must hit the aggregate and global
	// layout caches outright.
	StationaryAggregateHit bool `json:"stationaryAggregateHit"`
	StationaryGlobalHit    bool `json:"stationaryGlobalHit"`

	// CacheStats snapshots one warm cell's analysis cache, so the sweep's
	// hit arithmetic can be reconciled against the cache's own counters.
	CacheStats buildsys.CacheStats `json:"cacheStats"`
}

// IncrementalSmoke is the CI contract of the sweep, evaluated on the
// smallest-edit cell (the 1% cell under the default config): the warm
// cache-hit rate, relaid fraction, byte-identity, and warm/cold relink
// ratio bounds the incr-smoke job asserts.
type IncrementalSmoke struct {
	EditFrac float64 `json:"editFrac"`
	Workers  int     `json:"workers"`

	HitRate    float64 `json:"hitRate"`
	HitRateOK  bool    `json:"hitRateOK"` // >= 0.90
	RelaidFrac float64 `json:"relaidFrac"`
	RelaidOK   bool    `json:"relaidOK"` // <= 0.05
	Identical  bool    `json:"identical"`
	RelinkOK   bool    `json:"relinkOK"` // warm/cold makespan <= 0.25
	OK         bool    `json:"ok"`
}

// Smoke evaluates the CI contract. Byte-identity must hold on every cell;
// the rate/ratio bounds apply to the smallest-edit cells (all worker
// counts).
func (r *IncrementalResult) Smoke() IncrementalSmoke {
	s := IncrementalSmoke{HitRateOK: true, RelaidOK: true, Identical: true, RelinkOK: true}
	if len(r.Cells) == 0 {
		return IncrementalSmoke{}
	}
	minFrac := r.Cells[0].EditFrac
	for _, c := range r.Cells {
		if c.EditFrac < minFrac {
			minFrac = c.EditFrac
		}
		if !c.IdenticalArtifacts || !c.IdenticalBinary {
			s.Identical = false
		}
	}
	for _, c := range r.Cells {
		if c.EditFrac != minFrac {
			continue
		}
		s.EditFrac = c.EditFrac
		s.Workers = c.Workers
		s.HitRate = c.HitRate
		s.RelaidFrac = c.RelaidFrac
		if c.HitRate < 0.90 {
			s.HitRateOK = false
		}
		if c.RelaidFrac > 0.05 {
			s.RelaidOK = false
		}
		if c.WarmColdRelinkRatio > 0.25 {
			s.RelinkOK = false
		}
	}
	s.OK = s.HitRateOK && s.RelaidOK && s.Identical && s.RelinkOK &&
		r.StationaryAggregateHit && r.StationaryGlobalHit
	return s
}

// WriteBenchJSON writes the BENCH_incr.json artifact (one shape, shared
// by BenchmarkIncremental and `wsc-bench -incr`, so the bench-regression
// baselines apply to either producer).
func (r *IncrementalResult) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"benchmark":              "Incremental",
		"workload":               r.Workload,
		"slots":                  r.Slots,
		"records":                r.Cells,
		"stationaryAggregateHit": r.StationaryAggregateHit,
		"stationaryGlobalHit":    r.StationaryGlobalHit,
		"cacheStats":             r.CacheStats,
		"smoke":                  r.Smoke(),
	})
}

// IncrementalSweep replays edits of each configured size against warm
// content-keyed caches. The protocol per cell:
//
//  1. Profile the pre-edit binary once (shared across cells) and build
//     the position-independent symbolic aggregate against its BB map.
//  2. Warm arm: run the full pipeline on the pre-edit program with
//     caching enabled — populating the analysis cache (aggregate,
//     per-function layouts, global artifacts) and the build caches
//     (Phase-2 objects, Phase-4 hot objects) — then apply the edit and
//     re-run analysis + relink against the same caches and epoch.
//  3. Cold arm: the same edited inputs with fresh caches.
//
// The warm artifacts and optimized binary must be byte-identical to the
// cold ones; the cell records the cache accounting and the modeled
// Phase-4 makespans that quantify the warm win.
func IncrementalSweep(cfg IncrementalSweepConfig) (*IncrementalResult, error) {
	spec := cfg.spec()
	exec := &buildsys.Executor{Slots: cfg.slots()}

	// Shared pre-edit state: program, metadata binary, profile, symbolic
	// aggregate against the profiled binary's map.
	p0, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	pb, err := profileBuild(p0.Core, cfg.budget(), core.Options{
		Executor: exec,
		IRCache:  buildsys.NewCache(),
		ObjCache: buildsys.NewCache(),
	})
	if err != nil {
		return nil, err
	}
	map0, prof0, agg := pb.m, pb.prof, pb.agg
	load0 := func() (*bbaddrmap.Map, error) { return map0, nil }

	out := &IncrementalResult{Workload: spec.Name, Slots: cfg.slots()}

	// Stationary replay: same binary, same epoch, twice through one cache.
	{
		cache := buildsys.NewCache()
		scfg := wpa.Config{Cache: cache, ProfileEpoch: "stationary"}
		if _, err := wpa.Analyze(load0, wpa.Samples(prof0), scfg); err != nil {
			return nil, err
		}
		again, err := wpa.Analyze(load0, wpa.Samples(prof0), scfg)
		if err != nil {
			return nil, err
		}
		out.StationaryAggregateHit = again.Stats.AggregateCacheHit
		out.StationaryGlobalHit = again.Stats.GlobalCacheHit
	}

	for _, frac := range cfg.editFracs() {
		// Regenerate and edit: generation is deterministic, so p1 differs
		// from p0 by exactly the replayed edit.
		p1, err := workload.Generate(spec)
		if err != nil {
			return nil, err
		}
		edited := workload.EditFraction(p1, frac, 1)
		if len(edited) == 0 {
			return nil, fmt.Errorf("eval: edit fraction %g selected no functions", frac)
		}

		for _, w := range cfg.workers() {
			cell := IncrementalCell{
				Workload:    spec.Name,
				EditFrac:    frac,
				Workers:     w,
				EditedFuncs: len(edited),
			}

			// Cold arm: fresh caches, edited inputs.
			coldOpts := core.Options{
				Executor: exec,
				IRCache:  buildsys.NewCache(),
				ObjCache: buildsys.NewCache(),
				WPA:      wpa.Config{Workers: w},
			}
			meta1, err := core.BuildWithMetadata(p1.Core, coldOpts)
			if err != nil {
				return nil, err
			}
			map1, err := bbaddrmap.Decode(meta1.Binary.BBAddrMap)
			if err != nil {
				return nil, err
			}
			load1 := func() (*bbaddrmap.Map, error) { return map1, nil }
			coldStart := time.Now()
			coldRes, err := wpa.Analyze(load1, wpa.Prebuilt(agg), coldOpts.WPA)
			if err != nil {
				return nil, err
			}
			cell.ColdAnalysisSeconds = time.Since(coldStart).Seconds()
			coldBuild, nHot, _, err := core.Relink(p1.Core, meta1.IRKeys, coldRes, coldOpts)
			if err != nil {
				return nil, err
			}
			cell.HotModules = nHot
			cell.ColdRelinkMakespan = coldBuild.Exec.Makespan

			// Warm arm: populate every cache from the pre-edit pipeline,
			// then replay the edit against them.
			wpaCache := buildsys.NewCache()
			warmOpts := core.Options{
				Executor: exec,
				IRCache:  buildsys.NewCache(),
				ObjCache: buildsys.NewCache(),
				WPA:      wpa.Config{Workers: w, Cache: wpaCache, ProfileEpoch: "epoch-1"},
			}
			meta0w, err := core.BuildWithMetadata(p0.Core, warmOpts)
			if err != nil {
				return nil, err
			}
			warmRes0, err := wpa.Analyze(load0, wpa.Prebuilt(agg), warmOpts.WPA)
			if err != nil {
				return nil, err
			}
			if _, _, _, err := core.Relink(p0.Core, meta0w.IRKeys, warmRes0, warmOpts); err != nil {
				return nil, err
			}

			meta1w, err := core.BuildWithMetadata(p1.Core, warmOpts)
			if err != nil {
				return nil, err
			}
			warmStart := time.Now()
			warmRes, err := wpa.Analyze(load1, wpa.Prebuilt(agg), warmOpts.WPA)
			if err != nil {
				return nil, err
			}
			cell.WarmAnalysisSeconds = time.Since(warmStart).Seconds()
			warmBuild, _, _, err := core.Relink(p1.Core, meta1w.IRKeys, warmRes, warmOpts)
			if err != nil {
				return nil, err
			}

			st := warmRes.Stats
			cell.FuncLayoutHits = st.FuncLayoutHits
			cell.FuncLayoutMisses = st.FuncLayoutMisses
			cell.SampledFuncs = st.FuncLayoutHits + st.FuncLayoutMisses
			if cell.SampledFuncs > 0 {
				cell.HitRate = float64(st.FuncLayoutHits) / float64(cell.SampledFuncs)
				cell.RelaidFrac = float64(st.RelaidFuncs) / float64(cell.SampledFuncs)
			}
			cell.GlobalCacheHit = st.GlobalCacheHit
			cell.RelaidFuncs = st.RelaidFuncs
			cell.HotReused = warmBuild.HotReused
			cell.WarmRelinkMakespan = warmBuild.Exec.Makespan
			if cell.ColdRelinkMakespan > 0 {
				cell.WarmColdRelinkRatio = cell.WarmRelinkMakespan / cell.ColdRelinkMakespan
			}

			coldCC, coldLD, err := layoutfile.Render(coldRes.Directives, coldRes.Order)
			if err != nil {
				return nil, err
			}
			warmCC, warmLD, err := layoutfile.Render(warmRes.Directives, warmRes.Order)
			if err != nil {
				return nil, err
			}
			cell.IdenticalArtifacts = bytes.Equal(coldCC, warmCC) && bytes.Equal(coldLD, warmLD)
			cell.IdenticalBinary = coldBuild.Binary.BuildID == warmBuild.Binary.BuildID

			if out.CacheStats.Entries == 0 {
				out.CacheStats = wpaCache.Stats()
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}
