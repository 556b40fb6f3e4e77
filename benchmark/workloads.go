package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/profsvc"
	"propeller/internal/sim"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// Fixed load shape (README "Load shape"): closed loop, one client, two
// procs, two fleet hosts on one ingestion shard, two analysis workers.
const (
	procs           = 2
	wpaWorkers      = 2
	fleetHosts      = 2
	fleetGens       = 4
	fleetFaultRate  = 0.02
	evalInsts       = 400_000_000
	fleetTrainInsts = 20_000_000 // per host and generation
	trainLBRPeriod  = 211
	seedEditOneIn   = 20 // a seed edits one function in twenty
)

// workloadDef is one benchmark workload: a catalog program shape resized
// so that the layers named in README.md dominate its op.
type workloadDef struct {
	Name      string
	Spec      func() workload.Spec
	InterProc bool
	// Fleet makes the op one profsvc.RunGenerations loop instead of one
	// core.Optimize.
	Fleet bool
}

func sized(s workload.Spec, requests int64) func() workload.Spec {
	return func() workload.Spec {
		s.Requests = requests
		return s
	}
}

// The sizes are the ones ISSUE 11 fixed, except profile-deep: 92k
// requests (50M simulated instructions) instead of 128k, so that eleven
// ops fit the contract's 20 s run.
var workloads = []workloadDef{
	{Name: "relink-wide", Spec: sized(workload.Superroot(), 2000)},
	{Name: "profile-deep", Spec: sized(workload.SPECInt()[2], 92000)},
	{Name: "interproc-layout", Spec: sized(workload.Bigtable(), 3000), InterProc: true},
	{Name: "fleet-generation", Spec: sized(workload.MySQL(), 2500), Fleet: true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// fixture is a workload's generated input plus the reference its ops are
// checked against. The reference comes from the un-optimized
// core.BuildBaseline binary, never from a Propeller output.
type fixture struct {
	def  workloadDef
	seed uint64
	prog *workload.Program

	refExit      int64
	baseCycles   uint64
	baseTextSize int
}

// setup makes the inputs from the seed, then builds and runs the baseline
// reference.
func setup(def workloadDef, seed uint64) (*fixture, error) {
	prog, err := workload.Generate(def.Spec())
	if err != nil {
		return nil, err
	}
	addColdPaths(prog, seed)
	base, err := core.BuildBaseline(prog.Core, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("baseline build: %w", err)
	}
	run, err := runPlain(base.Binary)
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	return &fixture{
		def: def, seed: seed, prog: prog,
		refExit: run.Exit, baseCycles: run.Cycles, baseTextSize: len(base.Binary.Text),
	}, nil
}

// addColdPaths is what a seed does to a workload's catalog program: a
// seed-selected 5% of its functions, hot and cold alike, each gain one
// basic block that nothing branches to, the shape of a release that adds
// error paths. Every seed therefore has its own IR keys, object bytes,
// function sizes, addresses and LBR records, while the executed
// instruction stream, and with it the program's checksum, the sampled
// counts and the amount of work in an op, stay those of the catalog
// program. (workload.EditFraction, which pads entry blocks, was tried
// first: one more executed instruction shifts every later LBR sample, and
// the resampled profile moved interproc-layout's op time by a quarter and
// every workload's speed-up by a point from seed to seed.)
func addColdPaths(prog *workload.Program, seed uint64) {
	for _, m := range prog.Core.Modules {
		for _, f := range m.Funcs {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s/%d", f.Name, seed)
			if h.Sum64()%seedEditOneIn == 0 {
				b := f.NewBlock()
				b.Emit(ir.Inst{Op: isa.OpMovI, A: 0, Imm: int64(seed)})
				b.Halt()
			}
		}
	}
}

func runPlain(bin *objfile.Binary) (*sim.Result, error) {
	p, err := sim.Load(bin)
	if err != nil {
		return nil, err
	}
	return p.Run(sim.Config{MaxInsts: evalInsts})
}

// options returns the pipeline configuration of one op, with fresh
// caches: an op is a cold build.
func (f *fixture) options() core.Options {
	opts := core.Options{
		InterProc: f.def.InterProc,
		IRCache:   buildsys.NewCache(),
		ObjCache:  buildsys.NewCache(),
	}
	opts.WPA.Workers = wpaWorkers
	return opts
}

func (f *fixture) trainSpec() core.RunSpec {
	return core.RunSpec{MaxInsts: evalInsts, LBRPeriod: trainLBRPeriod}
}

func (f *fixture) fleetOptions() core.FleetOptions {
	return core.FleetOptions{
		Hosts: fleetHosts, Shards: 1, WorkersPerShard: 1,
		LossRate: fleetFaultRate, DupRate: fleetFaultRate, Seed: f.seed,
	}
}

// outcome is what one untraced op produced.
type outcome struct {
	opts core.Options
	res  *core.Result        // core.Optimize workloads
	loop *profsvc.LoopResult // fleet-generation
}

// op runs the workload's pipeline once through its public entry point.
func (f *fixture) op() (*outcome, error) {
	o := &outcome{opts: f.options()}
	var err error
	if f.def.Fleet {
		fo := f.fleetOptions()
		o.loop, err = profsvc.RunGenerations(f.prog.Core, profsvc.DriverConfig{
			Generations: fleetGens,
			Hosts:       fo.Hosts, Shards: fo.Shards, WorkersPerShard: fo.WorkersPerShard,
			LossRate: fo.LossRate, DupRate: fo.DupRate, Seed: fo.Seed,
			TrainInsts: fleetTrainInsts, LBRPeriod: trainLBRPeriod,
			Opts: o.opts,
		})
	} else {
		o.res, err = core.Optimize(f.prog.Core, f.trainSpec(), o.opts)
	}
	if err != nil {
		return nil, err
	}
	return o, nil
}

// fingerprint names everything an op decided: the build IDs of the
// binaries it produced and, per fleet generation, the layout it chose.
// Two ops on one fixture must agree on it (the determinism contract).
func (o *outcome) fingerprint() string {
	if o.res != nil {
		return o.res.Metadata.Binary.BuildID + "/" + o.res.Optimized.Binary.BuildID
	}
	parts := []string{o.loop.BaselineBuildID}
	for _, g := range o.loop.Generations {
		parts = append(parts, g.CandidateBuildID+":"+g.LayoutSHA)
	}
	return strings.Join(parts, "/")
}

// pmExit is the exit checksum the op's own run of the metadata binary
// halted with: the training run, or the loop's baseline measurement.
func (o *outcome) pmExit() int64 {
	if o.res != nil {
		return o.res.TrainRun.Exit
	}
	return o.loop.BaselineExit
}

// artifacts are the intermediate products of one op driven phase by
// phase; the layer probes run on them.
type artifacts struct {
	opts   core.Options
	irKeys []string
	meta   *core.BuildResult
	// prof is the profile the analysis consumed (fleet: the store's
	// aggregate).
	prof   *profile.Profile
	ingest fleetprof.IngestStats
	wres   *wpa.Result
	po     *core.BuildResult
	hot    int
	cold   int

	root   int            // the op's root span
	phases map[string]int // phase name → span id
}

// phased drives one op through core's exported phase functions, one span
// each under an op root. core.Optimize workloads take BuildWithMetadata →
// Phase1CacheIR → CollectProfile → Analyze → Relink; fleet-generation
// takes the first generation of the service loop, CollectFleetProfile →
// Store.Publish → Store.Profile → AnalyzeStreamed → Relink.
func (f *fixture) phased(rec *recorder, op int) (*artifacts, error) {
	a := &artifacts{opts: f.options(), phases: map[string]int{}}
	a.root = rec.start(op, 0, "op")
	defer rec.end(a.root)
	phase := func(name string, fn func() error) error {
		id := rec.start(op, a.root, name)
		defer rec.end(id)
		a.phases[name] = id
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	p := f.prog.Core

	if err := phase("build_pm", func() (err error) {
		a.meta, err = core.BuildWithMetadata(p, a.opts)
		return
	}); err != nil {
		return nil, err
	}
	_ = phase("cache_ir", func() error {
		a.irKeys = core.Phase1CacheIR(p, a.opts.IRCache)
		return nil
	})
	bin := a.meta.Binary

	if !f.def.Fleet {
		if err := phase("collect", func() (err error) {
			a.prof, _, err = core.CollectProfile(bin, f.trainSpec(), false)
			return
		}); err != nil {
			return nil, err
		}
		if err := phase("analyze", func() (err error) {
			a.wres, err = core.Analyze(bin, a.prof, a.opts)
			return
		}); err != nil {
			return nil, err
		}
	} else {
		// The first generation exactly as profsvc.RunGenerations runs it:
		// an analysis cache keyed by the store's epoch id.
		a.opts.WPA.Cache = buildsys.NewCache()
		store := profsvc.NewStore(profsvc.StoreConfig{})
		store.AdvanceEpoch()
		var merged *profile.Profile
		if err := phase("collect", func() (err error) {
			spec := core.RunSpec{MaxInsts: fleetTrainInsts, LBRPeriod: trainLBRPeriod}
			merged, _, a.ingest, err = core.CollectFleetProfile(bin, spec, f.fleetOptions(), false)
			return
		}); err != nil {
			return nil, err
		}
		if err := phase("publish", func() (err error) {
			_, err = store.Publish(merged)
			return
		}); err != nil {
			return nil, err
		}
		if err := phase("fetch", func() error {
			var ok bool
			if a.prof, ok = store.Profile(bin.BuildID); !ok {
				return fmt.Errorf("store lost build %s", bin.BuildID)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if err := phase("analyze", func() (err error) {
			a.opts.WPA.ProfileEpoch, _ = store.EpochID(bin.BuildID)
			a.wres, err = core.AnalyzeStreamed(bin, a.prof, a.opts)
			return
		}); err != nil {
			return nil, err
		}
	}

	if err := phase("relink", func() (err error) {
		a.po, a.hot, a.cold, err = core.Relink(p, a.irKeys, a.wres, a.opts)
		return
	}); err != nil {
		return nil, err
	}
	return a, nil
}

// checkAgainst says whether a phase-by-phase op reached the same final
// binary as the untraced op o: the optimized binary for core.Optimize,
// the first generation's candidate for the service loop.
func (a *artifacts) checkAgainst(o *outcome) error {
	want := ""
	if o.res != nil {
		want = o.res.Optimized.Binary.BuildID
	} else {
		want = o.loop.Generations[0].CandidateBuildID
	}
	if got := a.po.Binary.BuildID; got != want {
		return fmt.Errorf("phase-by-phase op built %s, the untraced op built %s", got, want)
	}
	return nil
}
