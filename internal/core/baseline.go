package core

import (
	"fmt"

	"propeller/internal/ir"
	"propeller/internal/opt"
	"propeller/internal/pgo"
	"propeller/internal/sim"
	"propeller/internal/thinlto"
)

// The baseline's ThinLTO hot-call inlining: a call site inlines when its
// block ran at least pgoMinInlineCount times in the training run and its
// callee has at most pgoMaxInlineInsts instructions.
const (
	pgoMinInlineCount = 16
	pgoMaxInlineInsts = 48
)

// PGOStats report the baseline preparation costs (the Table-5 "PGO"
// phases: instrumented build, profiling run, optimized build).
type PGOStats struct {
	TrainRun *sim.Result
	Imports  *thinlto.ImportStats

	InstrBuildCost float64 // building the instrumented binary
	ProfileCost    float64 // training-run wall time model
	OptBuildCost   float64 // building the optimized binary (Phase 2 reuses this)
}

// PreparePGO runs the two-stage PGO build plus ThinLTO over a raw program
// and returns the optimized modules — the "optimized IR" that Phase 1 of
// the Propeller pipeline caches. The input program is not modified.
func PreparePGO(p *Program, train RunSpec, opts Options) ([]*ir.Module, *PGOStats, error) {
	if err := validate(p); err != nil {
		return nil, nil, err
	}
	st := &PGOStats{}

	// Stage 0: the -O3 middle end (§3.1 compiles with "all optimizations
	// enabled"). Block IDs after this point are the stable identifiers the
	// whole pipeline keys on, so it runs once, up front, on clones.
	optimized0 := make([]*ir.Module, len(p.Modules))
	for i, m := range p.Modules {
		optimized0[i] = ir.CloneModule(m)
		if _, err := opt.Optimize(optimized0[i]); err != nil {
			return nil, nil, fmt.Errorf("core: middle end: %w", err)
		}
	}

	// Stage 1: instrumented build.
	instr := &Program{Name: p.Name + ".instr", Entry: p.Entry}
	var metas []*pgo.Meta
	for _, m := range optimized0 {
		im, meta := pgo.Instrument(m)
		instr.Modules = append(instr.Modules, im)
		metas = append(metas, meta)
	}
	ibuild, err := BuildBaseline(instr, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: instrumented build: %w", err)
	}
	// Wall time under the build system's scheduling width, not summed
	// single-core cost: that is what a release pipeline waits for.
	st.InstrBuildCost = ibuild.Exec.Makespan + ibuild.Linking

	// Stage 2: training run (functional, no uarch model needed).
	mach, err := sim.Load(ibuild.Binary)
	if err != nil {
		return nil, nil, err
	}
	run, err := mach.Run(sim.Config{
		MaxInsts:     train.MaxInsts,
		Args:         train.Args,
		DisableUarch: true,
		KeepMemory:   true,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: training run: %w", err)
	}
	st.TrainRun = run
	// Wall-time model for the profiling phase: proportional to the work
	// the load test performs.
	st.ProfileCost = float64(run.Insts) * 2e-7

	counts, err := pgo.ReadCounts(ibuild.Binary, run.DataImage, metas)
	if err != nil {
		return nil, nil, err
	}

	// Stage 3: apply the profile to fresh clones and optimize.
	out := make([]*ir.Module, len(optimized0))
	for i, m := range optimized0 {
		out[i] = ir.CloneModule(m)
		pgo.Apply(out[i], counts)
	}
	imports, err := thinlto.OptimizeProgram(out, pgoMinInlineCount, pgoMaxInlineInsts)
	if err != nil {
		return nil, nil, err
	}
	st.Imports = imports
	for _, m := range out {
		if err := pgo.LayoutBlocks(m); err != nil {
			return nil, nil, err
		}
		if err := ir.Verify(m); err != nil {
			return nil, nil, fmt.Errorf("core: post-PGO module invalid: %w", err)
		}
	}
	return out, st, nil
}
