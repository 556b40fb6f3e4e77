// Package eval runs the paper's evaluation protocol over a synthetic
// workload: build the PGO+ThinLTO baseline, profile it, produce the
// Propeller-optimized binary (relink) and the BOLT-optimized binary
// (rewrite), execute all of them on the simulator, and collect every
// measurement the paper's tables and figures report.
package eval

import (
	"errors"
	"fmt"

	"propeller/internal/bolt"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/heatmap"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/sim"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// Config controls one evaluation run.
type Config struct {
	Spec workload.Spec

	// TrainInsts bounds the profiling run; EvalInsts the measurement runs.
	TrainInsts uint64
	EvalInsts  uint64
	LBRPeriod  uint64

	// RunBolt enables the comparator arm.
	RunBolt bool

	// BoltOptions override the default heavy preset.
	BoltOptions *bolt.Options

	// InterProc switches Propeller to §4.7 inter-procedural layout.
	InterProc bool

	// WPAWorkers bounds the parallelism of the whole-program analysis
	// (wpa.Config.Workers): 0 = GOMAXPROCS, 1 = serial.
	WPAWorkers int

	// Heatmaps records Fig-7 instruction-access maps for the three
	// binaries (rows x cols).
	Heatmaps bool
	HeatRows int
	HeatCols int

	// Workstation switches the build environment model from the
	// distributed fleet to the 72-core developer machine (used for the
	// open-source and SPEC rows of §5).
	Workstation bool

	// IRCache and ObjCache, when non-nil, are the shared build caches
	// every build in the run goes through — pass tiered caches
	// (buildsys.NewTieredCache) to model the §2.1 shared fleet cache,
	// including eviction pressure and remote-fetch latency. Nil means
	// fresh unbounded per-pipeline caches (a cold standalone build).
	IRCache  *buildsys.Cache
	ObjCache *buildsys.Cache
}

func (c Config) budget() core.Budget {
	return core.Budget{TrainInsts: c.TrainInsts, EvalInsts: c.EvalInsts, LBRPeriod: c.LBRPeriod}.
		Or(core.Budget{TrainInsts: 200_000_000, EvalInsts: 400_000_000, LBRPeriod: 211})
}

// Run is one measured execution.
type Run struct {
	*sim.Result
	Heat *heatmap.Recorder
}

// Result carries everything the tables and figures need for one workload.
type Result struct {
	Spec workload.Spec

	// Table 2 characteristics (measured on the baseline binary).
	TextBytes  int64
	NumFuncs   int
	NumBlocks  int
	ColdObjPct float64

	// Binaries.
	Base *objfile.Binary // PGO+ThinLTO
	PM   *objfile.Binary // + Propeller metadata
	PO   *objfile.Binary // Propeller optimized
	BM   *objfile.Binary // + BOLT metadata (relocations)
	BO   *objfile.Binary // BOLT optimized (nil if BOLT was not run)

	// Executions. BOCrash is non-nil when the BOLTed binary faulted or
	// failed its startup self-check (the "Crash" cells of Table 3).
	BaseRun *Run
	PORun   *Run
	BORun   *Run
	BOCrash error

	// Phase-3 memory (Fig 4): Propeller WPA vs BOLT profile conversion.
	WPAStats       wpa.Stats
	BoltConvertMem int64

	// Phase-4 memory and runtime (Figs 5 and 9).
	BaseLink  *linker.Stats
	PropLink  *linker.Stats
	BoltStats *bolt.Stats

	// Build-time model (Table 5, Fig 9).
	PGOStats  *core.PGOStats
	Propeller *core.Result

	// Environment used for the modeled times.
	Slots int

	// ObjCacheStats snapshots the shared object cache after the run when
	// Config.ObjCache was set (hit/eviction/remote-fetch economics).
	ObjCacheStats buildsys.CacheStats
}

// RunWorkload executes the full protocol.
func RunWorkload(cfg Config) (*Result, error) {
	prog, err := workload.Generate(cfg.Spec)
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		HugePages: cfg.Spec.HugePages,
		InterProc: cfg.InterProc,
		IRCache:   cfg.IRCache,
		ObjCache:  cfg.ObjCache,
	}
	opts.WPA.Workers = cfg.WPAWorkers
	if cfg.Workstation {
		opts.Executor = buildsys.Workstation()
	} else if cfg.Spec.Name == "superroot" {
		opts.Executor = &buildsys.Executor{Slots: buildsys.DistributedSlots, MemLimit: buildsys.SuperrootMemLimit}
	}
	res := &Result{Spec: cfg.Spec, Slots: slotsOf(opts)}

	// PGO + ThinLTO baseline preparation.
	b := cfg.budget()
	train := core.RunSpec{MaxInsts: b.TrainInsts, LBRPeriod: b.LBRPeriod}
	optimized, pgoStats, err := core.PreparePGO(prog.Core, train, opts, core.PGOOptions{})
	if err != nil {
		return nil, fmt.Errorf("eval %s: pgo: %w", cfg.Spec.Name, err)
	}
	res.PGOStats = pgoStats
	p := &core.Program{Name: prog.Core.Name, Modules: optimized, Entry: prog.Core.Entry}

	// Base binary.
	base, err := core.BuildBaseline(p, opts)
	if err != nil {
		return nil, err
	}
	res.Base = base.Binary
	res.BaseLink = base.Link
	res.TextBytes = base.Binary.Stats().Text
	res.NumFuncs = countFuncs(p)
	res.NumBlocks = prog.TotalBlocks
	res.ColdObjPct = 100 * float64(prog.ColdModules) / float64(prog.TotalModules)

	// Propeller pipeline.
	prop, err := core.Optimize(p, train, opts)
	if err != nil {
		return nil, fmt.Errorf("eval %s: propeller: %w", cfg.Spec.Name, err)
	}
	res.Propeller = prop
	res.PM = prop.Metadata.Binary
	res.PO = prop.Optimized.Binary
	res.PropLink = prop.Optimized.Link
	res.WPAStats = prop.WPAStats

	// BOLT arm: BM build (relocations retained) + rewrite.
	if cfg.RunBolt {
		bm, err := buildBM(p, opts)
		if err != nil {
			return nil, err
		}
		res.BM = bm
		convMem, err := bolt.ConvertProfile(bm, prop.Profile)
		if err != nil {
			return nil, err
		}
		res.BoltConvertMem = convMem
		bOpts := bolt.Heavy()
		if cfg.BoltOptions != nil {
			bOpts = *cfg.BoltOptions
		}
		bo, bStats, err := bolt.Optimize(bm, prop.Profile, bOpts)
		if err != nil {
			return nil, fmt.Errorf("eval %s: bolt: %w", cfg.Spec.Name, err)
		}
		res.BO = bo
		res.BoltStats = bStats
	}

	// Measurement runs: every binary must reproduce the baseline's checksum.
	run := func(bin *objfile.Binary, ref *sim.Result) (*Run, error) {
		sc := sim.Config{MaxInsts: b.EvalInsts, Heatmap: cfg.heatmap(bin, res.BaseRun)}
		r, err := core.Measure(bin, sc, ref)
		return &Run{Result: r, Heat: sc.Heatmap}, err
	}
	if res.BaseRun, err = run(res.Base, nil); err != nil {
		return nil, fmt.Errorf("eval %s: baseline run: %w", cfg.Spec.Name, err)
	}
	if res.PORun, err = run(res.PO, res.BaseRun.Result); err != nil {
		return nil, fmt.Errorf("eval %s: propeller run: %w", cfg.Spec.Name, err)
	}
	if res.BO != nil {
		bo, err := run(res.BO, res.BaseRun.Result)
		var bad *core.ChecksumError
		ran := err == nil || errors.As(err, &bad)
		switch {
		case ran && bo.Exit == -99:
			res.BOCrash = errors.New("startup integrity self-check failed (exit -99)")
		case !ran:
			res.BOCrash = err
		default:
			// A wrong checksum is a crash cell that still reports its run.
			res.BORun, res.BOCrash = bo, err
		}
	}
	if cfg.ObjCache != nil {
		res.ObjCacheStats = cfg.ObjCache.Stats()
	}
	return res, nil
}

func slotsOf(opts core.Options) int {
	if opts.Executor != nil {
		return opts.Executor.Slots
	}
	return buildsys.DistributedSlots
}

func buildBM(p *core.Program, opts core.Options) (*objfile.Binary, error) {
	build, err := core.BuildBaseline(p, opts)
	if err != nil {
		return nil, err
	}
	// Relink the same objects with relocations retained (--emit-relocs).
	bin, _, err := linker.Link(build.Objects, linker.Config{
		Entry:        "main",
		RetainRelocs: true,
		HugePages:    opts.HugePages,
	})
	return bin, err
}

// heatmap returns the Fig-7 recorder of one measured run of bin, nil unless
// Heatmaps is set. Its time buckets are sized off the baseline run when
// that has run.
func (c Config) heatmap(bin *objfile.Binary, base *Run) *heatmap.Recorder {
	if !c.Heatmaps {
		return nil
	}
	rows, cols := c.HeatRows, c.HeatCols
	if rows == 0 {
		rows = 64
	}
	if cols == 0 {
		cols = 80
	}
	expect := c.budget().EvalInsts / 20
	if base != nil && base.Insts > 0 {
		expect = base.Insts
	}
	return heatmap.NewRecorder(bin.TextBase, int64(len(bin.Text)), rows, cols, expect)
}

func countFuncs(p *core.Program) int {
	n := 0
	for _, m := range p.Modules {
		n += len(m.Funcs)
	}
	return n
}

// Speedup returns the percentage cycle improvement of run b over a.
func Speedup(base, opt *Run) float64 {
	if base == nil || opt == nil || base.Cycles == 0 {
		return 0
	}
	return 100 * (1 - float64(opt.Cycles)/float64(base.Cycles))
}

// CounterRatio returns opt/base for a Table-4 counter label, in percent.
func CounterRatio(base, opt *Run, label string) float64 {
	b := base.Counters.Map()[label]
	o := opt.Counters.Map()[label]
	if b == 0 {
		return 100
	}
	return 100 * float64(o) / float64(b)
}
