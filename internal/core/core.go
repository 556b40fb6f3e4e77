// Package core implements Propeller itself: the profile-guided, relinking
// post-link optimizer of the paper. It orchestrates the four-phase
// workflow of Fig. 1 over the substrates in this repository:
//
//	Phase 1  compile modules to optimized IR and cache it (§3.1)
//	Phase 2  distributed backend + link with BB-address-map metadata (§3.2)
//	Phase 3  LBR profile collection on the simulator + whole-program
//	         analysis producing cc_prof.txt / ld_prof.txt (§3.3)
//	Phase 4  rebuild only the hot modules' objects with cluster
//	         directives, reuse every cold object from the cache, and
//	         relink under the global symbol order (§3.4)
//
// The same entry points also build the PGO+ThinLTO baseline binary the
// evaluation compares against.
package core

import (
	"fmt"
	"sort"
	"strconv"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/codegen"
	"propeller/internal/fleetprof"
	"propeller/internal/ir"
	"propeller/internal/layoutfile"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/prefetch"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/wpa"
)

// Program is the input application: optimized IR modules (the Phase-1
// artifacts, already carrying any PGO/ThinLTO transformations).
type Program struct {
	Name    string
	Modules []*ir.Module
	Entry   string // entry symbol; default "main"
}

func (p *Program) entry() string {
	if p.Entry == "" {
		return "main"
	}
	return p.Entry
}

// RunSpec describes how to execute the program on the simulator.
type RunSpec struct {
	Args      [4]int64
	MaxInsts  uint64
	LBRPeriod uint64 // default 997 for profiling runs
}

func (r RunSpec) lbrPeriod() uint64 {
	if r.LBRPeriod == 0 {
		return 997
	}
	return r.LBRPeriod
}

// samplingConfig is the simulator configuration of one LBR profiling run.
// The analysis reads only the samples, which the functional run takes
// exactly as the modeled one does, so the timing model runs only where its
// output is read: in the run that records the §3.5 cache-miss profile.
func (r RunSpec) samplingConfig(trackMisses bool) sim.Config {
	return sim.Config{
		MaxInsts:        r.MaxInsts,
		LBRPeriod:       r.lbrPeriod(),
		Args:            r.Args,
		TrackLoadMisses: trackMisses,
		DisableUarch:    !trackMisses,
	}
}

// Options configure the pipeline.
type Options struct {
	// Executor runs distributed actions; default buildsys.Distributed().
	Executor *buildsys.Executor

	// IRCache and ObjCache are the build system's artifact caches; fresh
	// ones are created when nil (a cold build).
	IRCache  *buildsys.Cache
	ObjCache *buildsys.Cache

	// InterProc enables §4.7 inter-procedural layout in the WPA.
	InterProc bool

	// HugePages links the final binaries with 2M-page text.
	HugePages bool

	// DataInCode embeds jump tables in text (default true: it matches
	// what production toolchains emit and what breaks disassemblers).
	NoDataInCode bool

	// HeuristicSplit applies the baseline call-based splitter in the
	// metadata/baseline builds (for the §4.6 comparison).
	HeuristicSplit bool

	// SoftwarePrefetch enables the §3.5 extension: the profiling run also
	// collects a cache-miss profile, and Phase 4 codegen inserts software
	// prefetches ahead of the hottest missing loads.
	SoftwarePrefetch bool

	// PrefetchConfig tunes the §3.5 analysis.
	PrefetchConfig prefetch.Config

	// prefetchDirectives is filled by Optimize between Phases 3 and 4.
	prefetchDirectives prefetch.Directives

	// WPA carries additional analyzer knobs.
	WPA wpa.Config

	// Fleet, when non-nil, switches Phase 3's profiling half to
	// fleet-scale collection: Hosts simulated machines each run the
	// training workload with a distinct LBR phase and stream sample
	// batches through the fleetprof ingestion service; the merged fleet
	// profile feeds the analyzer through its streaming reader.
	Fleet *FleetOptions
}

func (o Options) executor() *buildsys.Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return buildsys.Distributed()
}

// PhaseStats records the modeled cost of one pipeline phase.
type PhaseStats struct {
	Actions   int
	TotalCost float64 // summed single-core seconds
	Makespan  float64 // modeled wall time
	PeakMem   int64   // modeled peak action memory
}

// BuildResult is a produced binary plus its build costs.
type BuildResult struct {
	Binary  *objfile.Binary
	Objects []*objfile.Object
	Exec    *buildsys.ExecStats
	Link    *linker.Stats

	// IRKeys are the per-module IR cache keys Phase 1 computed for this
	// build (Phase1CacheIR's result), which Relink takes; callers that
	// built the binary need not encode the program again to learn them.
	// A backend looks its module's key up to be charged for the IR bytes
	// it would fetch; it compiles the in-memory module, not those bytes.
	IRKeys []string

	// Backends/Linking split the modeled cost as Fig. 9 reports it.
	Backends float64
	Linking  float64

	// HotReused counts hot modules whose Phase-4 object came from the
	// content-keyed relink cache instead of re-running codegen (always
	// zero for Phase-2 builds).
	HotReused int

	// batch names the backend actions in the order the executor was
	// handed them (the list scheduler's input).
	batch []string
}

// Result is the complete Propeller pipeline outcome.
type Result struct {
	Metadata  *BuildResult // the PM binary (Phase 2)
	Optimized *BuildResult // the PO binary (Phase 4)

	Profile *profile.Profile
	// TrainRun is the profiling run (host 0's in fleet mode), as
	// CollectProfile returns it: cycles, counters and LoadMisses only when
	// SoftwarePrefetch made it record the cache-miss profile.
	TrainRun   *sim.Result
	Directives layoutfile.Directives
	Order      layoutfile.SymbolOrder
	WPAStats   wpa.Stats

	// PrefetchDirectives are the §3.5 insertion sites (when enabled).
	PrefetchDirectives prefetch.Directives

	// IngestStats carries the fleet collection accounting (fleet mode).
	IngestStats *fleetprof.IngestStats

	HotModules  int
	ColdModules int
	HotFraction float64 // fraction of objects rebuilt in Phase 4

	Phase2 PhaseStats
	Phase3 PhaseStats
	Phase4 PhaseStats
}

// Cost-model constants: abstract seconds per unit of real work. Only
// ratios matter for the reproduced figures.
const (
	costCodegenBase    = 0.4  // action startup
	costCodegenPerByte = 4e-6 // backend time per IR byte
	costLinkBase       = 1.0
	costLinkPerByte    = 2.5e-8 // link time per input byte
	costWPAPerRecord   = 2e-6   // DCFG construction per LBR record
	costCachePerByte   = 1e-9   // cache fetch

	memCodegenBase      = 200 << 20 // backend RSS floor
	memCodegenPerIRByte = 12
	memLinkBase         = 64 << 20
)

// Phase1CacheIR serializes every module into the IR cache, returning the
// per-module content keys; the cache keeps each encoding, uncopied. This is
// the caching side of Phase 1; the "compile to optimized IR" work itself is
// the PGO/ThinLTO front half that produced p.Modules.
func Phase1CacheIR(p *Program, cache *buildsys.Cache) []string {
	keys := make([]string, len(p.Modules))
	for i, m := range p.Modules {
		data := ir.EncodeModule(m)
		key := buildsys.Key([]byte("ir"), []byte(m.Name), data)
		cache.Put(key, data)
		keys[i] = key
	}
	return keys
}

// codegenAction is the one place the backend cost model is written: the
// modeled time and admission RSS of lowering a module whose encoded IR is
// irBytes long, plus whatever the remote cache tier charged to fetch it.
func codegenAction(name string, irBytes int64, irFetch float64, run func() error) *buildsys.Action {
	return &buildsys.Action{
		Name:     name,
		Cost:     costCodegenBase + float64(irBytes)*costCodegenPerByte + irFetch,
		MemBytes: memCodegenBase + irBytes*memCodegenPerIRByte,
		Run:      run,
	}
}

// CodegenActions returns the modeled Phase-2 codegen batch for p — the
// same per-module costs and admission RSS a cold build schedules, but
// with no Run work attached — so schedulability studies (slot sweeps,
// fleet memory pressure) can replay a build against arbitrary executors
// without compiling anything.
func CodegenActions(p *Program) []*buildsys.Action {
	out := make([]*buildsys.Action, len(p.Modules))
	for i, m := range p.Modules {
		out[i] = codegenAction("codegen:"+m.Name, int64(ir.EncodedSize(m)), 0, nil)
	}
	return out
}

// objectPlan says where one module's object comes from.
type objectPlan struct {
	key     string          // object-cache key; "" = never cached (the Base build)
	mustHit bool            // a cache miss is an error, not a compile (Phase-4 cold modules)
	cg      codegen.Options // backend options when the module is compiled
}

// build is the one object path of the pipeline: Phase 2 and Phase 4 are
// two plans over it. Every module's object comes out of opts.ObjCache
// under its plan's key — scheduling the modeled transfer as a cost-only
// fetch action when the remote tier served it, so warm-but-remote builds
// are cheap, not free (§2.1) — or, on a miss, from one codegen action
// that compiles the in-memory module and encodes the object once. The
// action is charged for the module's cached IR as a remote backend would
// ship it: its size and any remote fetch latency, looked up under irKeys[i]
// (a missing entry is an error). Those bytes are never decoded; a module
// is compiled only for reading, so one Program may be built from several
// goroutines at once. The batch handed to run is the fetches, then the
// codegen actions, each in module order; run is the executor's Execute or
// ExecuteCriticalPath. Newly encoded objects are Put under their keys after
// the batch, in module order, so a budgeted cache's LRU order never depends
// on goroutine scheduling; the cache keeps those encodings, uncopied. The
// objects are then linked under cfg.
//
// A cached object that does not decode fails the build and names the
// module, whatever the key: content-addressed bytes that rot are a cache
// fault to surface, not to paper over with a recompile.
//
// hit reports, per module, whether the object came from the cache.
// Backends is the batch's cost summed in module order.
func build(p *Program, irKeys []string, opts Options, run func([]*buildsys.Action) (*buildsys.ExecStats, error), cfg linker.Config, plan func(i int, m *ir.Module) objectPlan) (res *BuildResult, hit []bool, err error) {
	n := len(p.Modules)
	res = &BuildResult{Objects: make([]*objfile.Object, n), IRKeys: irKeys}
	hit = make([]bool, n)
	keys := make([]string, n)
	encoded := make([][]byte, n)
	var fetches, codegens []*buildsys.Action
	for i, m := range p.Modules {
		pl := plan(i, m)
		keys[i] = pl.key
		if pl.key != "" {
			// The decoder copies out everything it keeps, so it reads the
			// cached bytes in place.
			if data, fetchCost, ok := opts.ObjCache.ViewCost(pl.key); ok {
				obj, err := objfile.DecodeObject(data)
				if err != nil {
					return nil, nil, fmt.Errorf("core: corrupt cached object for %s: %w", m.Name, err)
				}
				res.Objects[i], hit[i] = obj, true
				if fetchCost > 0 {
					res.Backends += fetchCost
					fetches = append(fetches, &buildsys.Action{Name: "fetch:" + m.Name, Cost: fetchCost})
				}
				continue
			}
			if pl.mustHit {
				return nil, nil, fmt.Errorf("core: object cache miss for cold module %s", m.Name)
			}
		}
		irBytes, irFetch, ok := opts.IRCache.SizeCost(irKeys[i])
		if !ok {
			return nil, nil, fmt.Errorf("core: IR cache miss for module %s", m.Name)
		}
		name := "codegen:" + m.Name
		if pl.cg.Mode == codegen.ModeList {
			name = "codegen-list:" + m.Name
		}
		a := codegenAction(name, irBytes, irFetch, func() error {
			obj, err := codegen.Compile(m, pl.cg)
			if err != nil {
				return err
			}
			res.Objects[i] = obj
			if pl.key != "" {
				encoded[i] = objfile.EncodeObject(obj)
			}
			return nil
		})
		res.Backends += a.Cost
		codegens = append(codegens, a)
	}
	batch := append(fetches, codegens...)
	res.batch = make([]string, len(batch))
	for i, a := range batch {
		res.batch[i] = a.Name
	}
	if res.Exec, err = run(batch); err != nil {
		return nil, nil, err
	}
	for i, data := range encoded {
		if data != nil {
			opts.ObjCache.Put(keys[i], data)
		}
	}

	var inputBytes int64
	for _, o := range res.Objects {
		inputBytes += o.Stats().Total()
	}
	res.Linking = costLinkBase + float64(inputBytes)*costLinkPerByte
	if _, err := run([]*buildsys.Action{{
		Name: "link",
		Cost: res.Linking,
		// The linker's modeled memory is filled in after the fact; use the
		// standard ~2x-inputs bound for admission control.
		MemBytes: memLinkBase + 2*inputBytes,
		Run: func() (err error) {
			res.Binary, res.Link, err = linker.Link(res.Objects, cfg)
			return err
		},
	}}); err != nil {
		return nil, nil, err
	}
	return res, hit, nil
}

// BuildBaseline produces the plain optimized binary (PGO+ThinLTO, no
// Propeller metadata): the "Base" configuration of the evaluation.
func BuildBaseline(p *Program, opts Options) (*BuildResult, error) {
	return buildVariant(p, opts, codegen.ModeNone, false)
}

// BuildWithMetadata produces the PM binary of Phase 2: identical layout to
// the baseline plus BB address map metadata.
func BuildWithMetadata(p *Program, opts Options) (*BuildResult, error) {
	return buildVariant(p, opts, codegen.ModeLabels, true)
}

func buildVariant(p *Program, opts Options, mode codegen.Mode, emitMap bool) (*BuildResult, error) {
	if opts.IRCache == nil {
		opts.IRCache = buildsys.NewCache()
	}
	keys := Phase1CacheIR(p, opts.IRCache)
	// Warm-cache fast path (§2.1: >90% action cache hit rates): only the
	// PM build's objects are cached, under their IR content keys.
	cached := opts.ObjCache != nil && emitMap
	res, _, err := build(p, keys, opts, opts.executor().Execute, linker.Config{
		Entry:       p.entry(),
		EmitAddrMap: emitMap,
		HugePages:   opts.HugePages,
	}, func(i int, _ *ir.Module) objectPlan {
		pl := objectPlan{cg: codegen.Options{
			Mode:           mode,
			DataInCode:     !opts.NoDataInCode,
			HeuristicSplit: opts.HeuristicSplit,
		}}
		if cached {
			pl.key = objCacheKey(keys[i])
		}
		return pl
	})
	if err != nil {
		return nil, err
	}
	// Phase 2's Backends is the executor's own sum (fetches first), not
	// build's module-order one: the same terms, rounded differently.
	res.Backends = res.Exec.TotalCost
	return res, nil
}

func objCacheKey(irKey string) string {
	return buildsys.KeyStrings("obj-labels", irKey)
}

// listObjCacheKey keys a Phase-4 hot-module object by everything that
// shapes its codegen output: the module's IR content key plus the layout
// inputs that apply to this module — its functions' cluster directives,
// its prefetch-insertion sites, and the data-in-code setting. A warm
// relink whose directives for a module are unchanged (the usual case
// after a small edit: layouts of untouched functions are byte-identical)
// reuses the previous relink's object from the cache instead of running
// codegen again.
//
// The parts read as fmt's %v would print them ("d:f:[[0 2] [5]]",
// "p:f:[{f 3 12 64}]"), written with strconv into one reused buffer.
func listObjCacheKey(irKey string, m *ir.Module, dirs layoutfile.Directives, opts Options) string {
	dic := "dic=false"
	if !opts.NoDataInCode {
		dic = "dic=true"
	}
	parts := []string{"obj-list", irKey, dic}
	var b []byte
	for _, f := range m.Funcs {
		if spec, ok := dirs[f.Name]; ok {
			b = append(append(append(b[:0], "d:"...), f.Name...), ":["...)
			for i, cl := range spec.Clusters {
				if i > 0 {
					b = append(b, ' ')
				}
				b = append(b, '[')
				for j, id := range cl {
					if j > 0 {
						b = append(b, ' ')
					}
					b = strconv.AppendInt(b, int64(id), 10)
				}
				b = append(b, ']')
			}
			parts = append(parts, string(append(b, ']')))
		}
		if sites, ok := opts.prefetchDirectives[f.Name]; ok {
			b = append(append(append(b[:0], "p:"...), f.Name...), ":["...)
			for i, st := range sites {
				if i > 0 {
					b = append(b, ' ')
				}
				b = append(append(append(b, '{'), st.Fn...), ' ')
				b = append(strconv.AppendInt(b, int64(st.Block), 10), ' ')
				b = append(strconv.AppendUint(b, st.Off, 10), ' ')
				b = append(strconv.AppendInt(b, st.Delta, 10), '}')
			}
			parts = append(parts, string(append(b, ']')))
		}
	}
	return buildsys.KeyStrings(parts...)
}

// CollectProfile runs the metadata binary under representative load with
// the LBR sampler enabled (Phase 3's profiling half). trackMisses also
// records the §3.5 cache-miss profile.
//
// The returned run holds the exit value, the instruction count and the
// profile. Only a run with trackMisses drives the timing model and so also
// holds cycles, counters and LoadMisses; any other run is functional, with
// Cycles equal to Insts and zero Counters.
func CollectProfile(bin *objfile.Binary, spec RunSpec, trackMisses bool) (*profile.Profile, *sim.Result, error) {
	return collectProfile(bin, spec, trackMisses, nil)
}

// collectProfile is CollectProfile with the simulator's batch hand-off:
// onBatch, when non-nil, receives the profile's samples while the run is
// still taking them (sim.Config.OnBatch).
func collectProfile(bin *objfile.Binary, spec RunSpec, trackMisses bool, onBatch func([]profile.Sample)) (*profile.Profile, *sim.Result, error) {
	mach, err := sim.Load(bin)
	if err != nil {
		return nil, nil, err
	}
	cfg := spec.samplingConfig(trackMisses)
	cfg.OnBatch = onBatch
	res, err := mach.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	res.Profile.Binary = "pm"
	return res.Profile, res, nil
}

// analyze is Phase 3's analysis of src against bin's BB address map, which
// wpa.Analyze decodes when it first needs it: beside the start of a live
// run's sampling.
func analyze(bin *objfile.Binary, src wpa.Source, opts Options) (*wpa.Result, error) {
	if bin.BBAddrMap == nil {
		return nil, fmt.Errorf("core: binary has no BB address map; build with metadata first")
	}
	cfg := opts.WPA
	cfg.InterProc = cfg.InterProc || opts.InterProc
	if cfg.BuildID == "" {
		cfg.BuildID = bin.BuildID
	}
	return wpa.Analyze(func() (*bbaddrmap.Map, error) { return bbaddrmap.Decode(bin.BBAddrMap) }, src, cfg)
}

// collectAndAnalyze is Phase 3 of the single-host path, CollectProfile then
// Analyze, as a two-stage pipeline: the profiling run hands the analyzer
// each batch of samples it has finished writing, and the analyzer decodes
// the address map and aggregates on the other cores while the run goes on.
// Profile, training run and analysis are those of the two calls made one
// after the other.
func collectAndAnalyze(bin *objfile.Binary, spec RunSpec, opts Options) (prof *profile.Profile, run *sim.Result, wres *wpa.Result, err error) {
	wres, err = analyze(bin, wpa.During(bin.BuildID, func(add func([]profile.Sample)) (*profile.Profile, error) {
		var err error
		if prof, run, err = collectProfile(bin, spec, opts.SoftwarePrefetch, add); err != nil {
			return nil, fmt.Errorf("core: profiling run failed: %w", err)
		}
		return prof, nil
	}), opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return prof, run, wres, nil
}

// Analyze runs the whole-program analysis (Phase 3's WPA half) over a
// profile in memory.
func Analyze(bin *objfile.Binary, prof *profile.Profile, opts Options) (*wpa.Result, error) {
	return analyze(bin, wpa.Samples(prof), opts)
}

// Relink is Phase 4: hot modules are re-generated with cluster directives,
// each backend charged for its module's cached IR; cold objects come
// straight from the object cache; the final link applies the global symbol
// order and drops cold metadata. irKeys must be Phase1CacheIR(p)'s keys
// (BuildResult.IRKeys of p's metadata build): they name the IR and object
// cache entries of p's modules, and the backends compile p.Modules itself.
//
// Phase-4 objects are themselves cached under (IR content, module
// directives, prefetch sites), so a warm relink after a small edit only
// re-runs codegen for hot modules whose layout inputs actually changed
// (BuildResult.HotReused counts the rest). The backend batch is
// scheduled critical-path-first: the few expensive rebuilds start ahead
// of the crowd of near-free fetches, so the warm makespan approaches the
// cost of the changed modules alone.
func Relink(p *Program, irKeys []string, res *wpa.Result, opts Options) (*BuildResult, int, int, error) {
	if opts.IRCache == nil || opts.ObjCache == nil {
		return nil, 0, 0, fmt.Errorf("core: Relink requires the Phase-1 IR cache and Phase-2 object cache")
	}
	hot := make([]bool, len(p.Modules))
	hotNames := map[string]bool{}
	nHot := 0
	for i, m := range p.Modules {
		for _, f := range m.Funcs {
			if _, ok := res.Directives[f.Name]; ok {
				hot[i], hotNames[m.Name] = true, true
				nHot++
				break
			}
		}
	}
	out, hit, err := build(p, irKeys, opts, opts.executor().ExecuteCriticalPath, linker.Config{
		Entry:       p.entry(),
		Order:       &res.Order,
		EmitAddrMap: true,
		KeepMapFor:  func(obj string) bool { return hotNames[obj] },
		HugePages:   opts.HugePages,
	}, func(i int, m *ir.Module) objectPlan {
		if !hot[i] {
			return objectPlan{key: objCacheKey(irKeys[i]), mustHit: true}
		}
		// A hit is a warm relink: this hot module's layout inputs are
		// unchanged since the last relink, so its object is reused.
		return objectPlan{key: listObjCacheKey(irKeys[i], m, res.Directives, opts), cg: codegen.Options{
			Mode:       codegen.ModeList,
			Directives: res.Directives,
			DataInCode: !opts.NoDataInCode,
			Prefetch:   opts.prefetchDirectives,
		}}
	})
	if err != nil {
		return nil, 0, 0, err
	}
	for i := range hit {
		if hot[i] && hit[i] {
			out.HotReused++
		}
	}
	return out, nHot, len(p.Modules) - nHot, nil
}

// Optimize runs the full Propeller pipeline end to end.
func Optimize(p *Program, train RunSpec, opts Options) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if opts.IRCache == nil {
		opts.IRCache = buildsys.NewCache()
	}
	if opts.ObjCache == nil {
		opts.ObjCache = buildsys.NewCache()
	}

	// Phases 1+2.
	meta, err := BuildWithMetadata(p, opts)
	if err != nil {
		return nil, err
	}

	// Phase 3. Fleet mode gathers the profile from many simulated hosts
	// through the ingestion service and analyzes the merged profile in
	// memory; single-host mode aggregates the profile while the training
	// run is still producing it.
	var prof *profile.Profile
	var trainRun *sim.Result
	var ingest *fleetprof.IngestStats
	var wres *wpa.Result
	if opts.Fleet != nil {
		var st fleetprof.IngestStats
		if prof, trainRun, st, err = CollectFleetProfile(meta.Binary, train, *opts.Fleet, opts.SoftwarePrefetch); err != nil {
			return nil, err
		}
		ingest = &st
		wres, err = analyze(meta.Binary, wpa.Samples(prof), opts)
	} else {
		prof, trainRun, wres, err = collectAndAnalyze(meta.Binary, train, opts)
	}
	if err != nil {
		return nil, err
	}

	// §3.5 extension: derive prefetch-insertion directives from the
	// cache-miss profile, to be applied by the Phase-4 backends.
	var pfd prefetch.Directives
	if opts.SoftwarePrefetch {
		m, err := bbaddrmap.Decode(meta.Binary.BBAddrMap)
		if err != nil {
			return nil, err
		}
		pfd = prefetch.Analyze(m, trainRun.LoadMisses, opts.PrefetchConfig)
		opts.prefetchDirectives = pfd
	}

	// Phase 4.
	optimized, nHot, nCold, err := Relink(p, meta.IRKeys, wres, opts)
	if err != nil {
		return nil, err
	}

	out := &Result{
		Metadata:           meta,
		Optimized:          optimized,
		PrefetchDirectives: pfd,
		IngestStats:        ingest,
		Profile:            prof,
		TrainRun:           trainRun,
		Directives:         wres.Directives,
		Order:              wres.Order,
		WPAStats:           wres.Stats,
		HotModules:         nHot,
		ColdModules:        nCold,
	}
	if nHot+nCold > 0 {
		out.HotFraction = float64(nHot) / float64(nHot+nCold)
	}
	out.Phase2 = PhaseStats{
		Actions:   meta.Exec.Actions + 1,
		TotalCost: meta.Backends + meta.Linking,
		Makespan:  meta.Exec.Makespan + meta.Linking,
		PeakMem:   maxI64(meta.Exec.PeakActionMem, meta.Link.PeakMemory),
	}
	out.Phase3 = PhaseStats{
		Actions:   1,
		TotalCost: float64(wres.Stats.Records) * costWPAPerRecord,
		Makespan:  Phase3Makespan(wres.Stats, opts.WPA.Workers),
		PeakMem:   wres.Stats.ModeledBytes,
	}
	out.Phase4 = PhaseStats{
		Actions:   optimized.Exec.Actions + 1,
		TotalCost: optimized.Backends + optimized.Linking,
		Makespan:  optimized.Exec.Makespan + optimized.Linking,
		PeakMem:   maxI64(optimized.Exec.PeakActionMem, optimized.Link.PeakMemory),
	}
	return out, nil
}

// Phase3Makespan models the Phase-3 wall time for an analysis that ran
// with the given explicit worker setting. The modeled span (Records x
// per-record cost, the Table-5 quantity) is split between the two arms
// of §4.7's parallel analysis by their measured wall-time shares, and
// each arm scales by its own parallelism: sample aggregation (plus the
// shard merge, which only exists when aggregation is sharded) divides by
// the worker count, while the layout arm divides by the layout
// parallelism the analysis reported (LayoutWorkers): min(workers,
// functions laid out) per function, and for the global Ext-TSP run
// min(workers, components), the bound its component partition puts on
// parallelism, since merges never cross a component. Dividing the whole
// span by the worker count, as the model used to, overstated InterProc
// scaling whenever the hot graph was one component.
//
// Only an explicit Workers setting (> 1) scales the model: the default
// (0 = GOMAXPROCS) would make the modeled Table-5 numbers depend on the
// reporting machine.
func Phase3Makespan(st wpa.Stats, workers int) float64 {
	total := float64(st.Records) * costWPAPerRecord
	if workers <= 1 {
		return total
	}
	aggWall := (st.AggregateWall + st.MergeWall).Seconds()
	layWall := st.LayoutWall.Seconds()
	wall := aggWall + layWall
	if wall <= 0 {
		// No measured breakdown (synthetic stats): attribute the whole
		// span to aggregation, the pre-split behavior.
		return total / float64(workers)
	}
	layWorkers := st.LayoutWorkers
	if layWorkers < 1 {
		layWorkers = 1
	}
	if layWorkers > workers {
		layWorkers = workers
	}
	aggSpan := total * (aggWall / wall) / float64(workers)
	laySpan := total * (layWall / wall) / float64(layWorkers)
	return aggSpan + laySpan
}

func validate(p *Program) error {
	if len(p.Modules) == 0 {
		return fmt.Errorf("core: program %q has no modules", p.Name)
	}
	names := map[string]bool{}
	for _, m := range p.Modules {
		if names[m.Name] {
			return fmt.Errorf("core: duplicate module name %q", m.Name)
		}
		names[m.Name] = true
	}
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SortedHotFunctions lists the functions with layout directives (testing
// and reporting aid).
func (r *Result) SortedHotFunctions() []string {
	out := make([]string, 0, len(r.Directives))
	for fn := range r.Directives {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}
