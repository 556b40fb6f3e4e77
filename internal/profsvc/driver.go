package profsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/par"
	"propeller/internal/profile"
	"propeller/internal/sim"
)

// DriverConfig configures the generation driver.
type DriverConfig struct {
	// Generations is the number of profile → relink → redeploy loops to
	// run (default 5).
	Generations int

	// Fleet collection shape (fed to core.CollectFleetProfile each
	// generation; zero values take that layer's defaults).
	Hosts           int
	Shards          int
	WorkersPerShard int
	QueueDepth      int
	LossRate        float64
	DupRate         float64
	Seed            uint64
	BatchSamples    int

	// TrainInsts bounds the fleet's profiling run, which samples every
	// host (default 20M);
	// EvalInsts the candidate measurement runs (default 40M).
	TrainInsts uint64
	EvalInsts  uint64
	LBRPeriod  uint64 // default 211
	Args       [4]int64

	// Scorer is the rebuild admission policy; the zero Scorer admits any
	// profile.
	Scorer Scorer

	// Opts carries the build pipeline configuration (caches are created
	// when nil).
	Opts core.Options

	// Store is the profile store; one with the default retention policy
	// when nil.
	Store *Store

	// Service, when non-nil, is told each generation's serving build ID —
	// the build-ID enforcement the HTTP front end applies to publishes.
	Service *Service

	// Client, when non-nil, routes publish and fetch through the HTTP API
	// instead of calling the store directly — the same Store must back the
	// server the client points at.
	Client *Client
}

func (c DriverConfig) generations() int {
	if c.Generations < 1 {
		return 5
	}
	return c.Generations
}

func (c DriverConfig) budget() core.Budget {
	return core.Budget{TrainInsts: c.TrainInsts, EvalInsts: c.EvalInsts, LBRPeriod: c.LBRPeriod}.
		Or(core.Budget{TrainInsts: 20_000_000, EvalInsts: 40_000_000, LBRPeriod: 211})
}

func (c DriverConfig) hosts() int {
	if c.Hosts < 1 {
		return 4
	}
	return c.Hosts
}

// Generation records one loop iteration.
type Generation struct {
	Index int `json:"gen"`
	// ProfiledBuildID is the binary the fleet ran and profiled this
	// generation (the deployed binary at collection time).
	ProfiledBuildID string `json:"profiledBuildID"`
	// CandidateBuildID is the relink output's content-hash build ID
	// (empty when the admission scorer kept the gate closed).
	CandidateBuildID string `json:"candidateBuildID,omitempty"`
	// DeployedBuildID is the serving binary after the adoption decision.
	DeployedBuildID string `json:"deployedBuildID"`
	// LayoutSHA fingerprints the generation's layout decision: sha256 over
	// the cc_prof.txt directives and ld_prof.txt symbol order bytes.
	LayoutSHA string `json:"layoutSHA,omitempty"`
	// CandidateCycles / DeployedCycles are measured on EvalInsts.
	CandidateCycles uint64 `json:"candidateCycles,omitempty"`
	DeployedCycles  uint64 `json:"deployedCycles"`
	// SpeedupPct is the deployed binary's improvement over the baseline.
	SpeedupPct float64 `json:"speedupPct"`
	// Adopted says the candidate strictly beat the deployed binary and
	// replaced it — the rollout hysteresis that prevents oscillation.
	Adopted bool `json:"adopted"`
	// FixedPoint says this generation reproduced the previous one exactly:
	// same candidate build ID, same deployed build ID.
	FixedPoint  bool `json:"fixedPoint"`
	GateOpen    bool `json:"gateOpen"`
	HotModules  int  `json:"hotModules,omitempty"`
	ColdModules int  `json:"coldModules,omitempty"`
	// ProfileEpochID is the store's aggregate fingerprint the analysis was
	// keyed by (empty when the incremental cache was inactive).
	ProfileEpochID string `json:"profileEpochID,omitempty"`
	// LayoutCacheHit says Phase 3 served the whole layout from the
	// incremental analysis cache (possible only once the store's aggregate
	// is stationary — same epoch ID as an earlier analysis of this build).
	LayoutCacheHit bool `json:"layoutCacheHit,omitempty"`
	// HotReused counts hot modules whose Phase-4 object came from the
	// relink cache instead of re-running codegen.
	HotReused int `json:"hotReused,omitempty"`
	// EpochSamples is the fleet profile's sample count this generation.
	EpochSamples int         `json:"epochSamples"`
	Admit        AdmitReport `json:"admit"`
	// Retained is the build's sample count in the store after publishing.
	Retained int64 `json:"retained"`
}

// LoopResult is the outcome of a full generation loop.
type LoopResult struct {
	Workload        string       `json:"workload"`
	BaselineBuildID string       `json:"baselineBuildID"`
	BaselineCycles  uint64       `json:"baselineCycles"`
	BaselineExit    int64        `json:"-"`
	Generations     []Generation `json:"generations"`
	// FixedPoint says the loop converged: the final generation reproduced
	// its predecessor byte-for-byte.
	FixedPoint bool `json:"fixedPoint"`
	// FixedPointGen is the first generation of the stable suffix (0 when
	// the loop never converged).
	FixedPointGen int        `json:"fixedPointGen"`
	Store         StoreStats `json:"store"`
}

// FinalSpeedupPct is the last generation's deployed speedup over baseline.
func (r *LoopResult) FinalSpeedupPct() float64 {
	if len(r.Generations) == 0 {
		return 0
	}
	return r.Generations[len(r.Generations)-1].SpeedupPct
}

// collectFleet is the fleet collection the loop runs: a variable so tests
// can count the collections a loop makes and of which binaries.
var collectFleet = core.CollectFleetProfile

// adopts is the rollout rule: a candidate replaces the serving binary only
// when its measured cycles are strictly lower. A variable so tests can make
// a distinct candidate lose.
var adopts = func(gen int, cand, deployed uint64) bool { return cand < deployed }

// collection is one fleet collection: the merged profile and the ingest
// stats the loop reads, or why it failed.
type collection struct {
	merged *profile.Profile
	ingest fleetprof.IngestStats
	err    error
}

func collect(bin *objfile.Binary, spec core.RunSpec, fo core.FleetOptions) collection {
	// The fleetprof-level gate stays zero: admission is the scorer's job.
	merged, _, ingest, err := collectFleet(bin, spec, fo, false)
	return collection{merged: merged, ingest: ingest, err: err}
}

// RunGenerations closes the loop K times over one program: profile the
// deployed binary across the fleet, publish the merged profile to the
// store (over HTTP when a Client is configured), gate on the admission
// scorer, relink through Phase 4 (a new content-hash build ID), measure
// the candidate, and adopt it only on strict cycle improvement. The
// baseline is the Phase-2 metadata binary; every candidate must reproduce
// its exit checksum. By construction the deployed cycle count is monotone
// non-increasing — the speedup curve never regresses — and with the
// store's bounded retention the candidate layout becomes a pure function
// of the deployed binary, so the loop reaches a byte-identical fixed
// point instead of oscillating.
//
// The fleet's collection of a candidate starts as soon as it is relinked,
// beside its evaluation run, on the bet that it is adopted; the next
// generation uses that collection only when the candidate did become the
// serving binary, and collects the serving binary itself otherwise. A
// collection is a pure function of the binary and the fleet's shape, so
// the LoopResult is the one the serial loop returns.
func RunGenerations(p *core.Program, cfg DriverConfig) (*LoopResult, error) {
	opts := cfg.Opts
	if opts.IRCache == nil {
		opts.IRCache = buildsys.NewCache()
	}
	if opts.ObjCache == nil {
		opts.ObjCache = buildsys.NewCache()
	}
	if opts.WPA.Cache == nil {
		// Incremental analysis cache, shared across generations: once the
		// store's decayed aggregate reaches a fixed point, re-analyses of
		// the same deployed binary under the same epoch ID are cache hits.
		opts.WPA.Cache = buildsys.NewCache()
	}
	store := cfg.Store
	if store == nil {
		store = NewStore(StoreConfig{})
	}

	meta, err := core.BuildWithMetadata(p, opts)
	if err != nil {
		return nil, fmt.Errorf("profsvc: metadata build: %w", err)
	}

	// The baseline run is read only once a generation decides what to
	// serve or judges a candidate against it, so it runs beside generation
	// 1's collection. Every return below joins what the loop started: the
	// baseline run, the last candidate's collection and, in the generation
	// under way, the hot set.
	b := cfg.budget()
	evalCfg := sim.Config{MaxInsts: b.EvalInsts, Args: cfg.Args}
	var baseErr error // written by the job, read after its Join
	baseline := par.Start(func() (r *sim.Result) {
		r, baseErr = core.Measure(meta.Binary, evalCfg, nil)
		return r
	})
	var hotSet *par.Job[[]string]
	var ahead *par.Job[collection] // the last candidate's collection
	var aheadOf *objfile.Binary    // and the candidate it profiles
	defer func() {
		baseline.Join()
		if hotSet != nil {
			hotSet.Join()
		}
		if ahead != nil {
			ahead.Join()
		}
	}()
	out := &LoopResult{Workload: p.Name, BaselineBuildID: meta.Binary.BuildID}
	var base *sim.Result
	var deployedCycles uint64
	// readBaseline joins the baseline run where the loop first reads it.
	readBaseline := func() error {
		if base != nil {
			return nil
		}
		r := baseline.Join()
		if baseErr != nil {
			return fmt.Errorf("profsvc: baseline run: %w", baseErr)
		}
		base = r
		out.BaselineCycles, out.BaselineExit, deployedCycles = r.Cycles, r.Exit, r.Cycles
		return nil
	}

	deployed := meta.Binary
	spec := core.RunSpec{Args: cfg.Args, MaxInsts: b.TrainInsts, LBRPeriod: b.LBRPeriod}
	fo := core.FleetOptions{
		Hosts:           cfg.Hosts,
		Shards:          cfg.Shards,
		WorkersPerShard: cfg.WorkersPerShard,
		QueueDepth:      cfg.QueueDepth,
		LossRate:        cfg.LossRate,
		DupRate:         cfg.DupRate,
		Seed:            cfg.Seed,
		BatchSamples:    cfg.BatchSamples,
	}
	var prevHot []string
	// lost holds the build IDs that cannot beat the serving binary: its own
	// and those of candidates measured against it. A loop at its fixed
	// point re-derives the same losing candidate every generation, and a
	// collection of it would be thrown away every time.
	lost := map[string]bool{deployed.BuildID: true}
	// The scorer's view of the serving binary's address map, rebuilt only
	// when an adoption changes which binary is serving.
	var lk *bbaddrmap.Lookup
	var lkOf *objfile.Binary

	for g := 1; g <= cfg.generations(); g++ {
		gen := Generation{Index: g, ProfiledBuildID: deployed.BuildID}
		if cfg.Service != nil {
			cfg.Service.SetServing(deployed.BuildID, g)
		}
		store.AdvanceEpoch()

		// This epoch's fleet profile of the deployed binary: the one
		// collected beside the last candidate's run if that candidate was
		// adopted, a collection made now otherwise. A collection serves
		// one generation only.
		var c collection
		if ahead != nil && aheadOf == deployed {
			c, ahead = ahead.Join(), nil
		} else {
			c = collect(deployed, spec, fo)
		}
		merged, ingest, err := c.merged, c.ingest, c.err
		if err != nil {
			return nil, fmt.Errorf("profsvc: gen %d collection: %w", g, err)
		}
		gen.EpochSamples = len(merged.Samples)

		// The epoch's hot set against the serving binary's map runs beside
		// everything up to the candidate's evaluation run.
		if lkOf != deployed {
			if lk, err = fleetprof.AddrMapLookup(deployed.BBAddrMap); err != nil {
				return nil, fmt.Errorf("profsvc: gen %d admission: %w", g, err)
			}
			lkOf = deployed
		}
		hotLk := lk
		hotSet = par.Start(func() []string { return fleetprof.HotFuncs(merged, hotLk) })

		// Publish to the store and read back the decayed aggregate — over
		// the wire when a client is configured.
		var agg *profile.Profile
		if cfg.Client != nil {
			rep, err := cfg.Client.Publish(merged)
			if err != nil {
				return nil, fmt.Errorf("profsvc: gen %d publish: %w", g, err)
			}
			gen.Retained = rep.Retained
			if agg, err = cfg.Client.Fetch(deployed.BuildID); err != nil {
				return nil, fmt.Errorf("profsvc: gen %d fetch: %w", g, err)
			}
		} else {
			if gen.Retained, err = store.Publish(merged); err != nil {
				return nil, fmt.Errorf("profsvc: gen %d publish: %w", g, err)
			}
			var ok bool
			if agg, ok = store.Profile(deployed.BuildID); !ok {
				return nil, fmt.Errorf("profsvc: gen %d: store lost build %s", g, deployed.BuildID)
			}
		}

		// A scorer whose criteria read the hot set waits for it to decide.
		// Any other decides without it — the same Ready and Reason — and
		// the report's hot-set fields are filled in once it is joined.
		score := func(hot []string) AdmitReport {
			return cfg.Scorer.Score(merged, agg, hot, ingest, cfg.hosts(), prevHot)
		}
		var early []string
		if cfg.Scorer.readsHotSet() {
			early = hotSet.Join()
		}
		gen.GateOpen = score(early).Ready
		if !gen.GateOpen {
			// Keep serving the current binary; the store keeps
			// accumulating until the profile is representative.
			if err := readBaseline(); err != nil {
				return nil, err
			}
			gen.Admit = score(hotSet.Join())
			gen.DeployedBuildID = deployed.BuildID
			gen.DeployedCycles = deployedCycles
			gen.SpeedupPct = speedupPct(out.BaselineCycles, deployedCycles)
			out.Generations = append(out.Generations, gen)
			continue
		}

		// Whole-program analysis of the aggregate against the deployed
		// binary's BB address map, build ID enforced before any sample is
		// folded. The analysis is keyed by the store's aggregate
		// fingerprint: when the decayed aggregate is stationary across
		// generations, the epoch ID repeats and the layout comes straight
		// from the cache.
		// Over a remote client the local store holds nothing for this
		// build, the ID stays empty, and the cache path is inert.
		opts.WPA.ProfileEpoch = ""
		if id, ok := store.EpochID(deployed.BuildID); ok {
			opts.WPA.ProfileEpoch = id
		}
		gen.ProfileEpochID = opts.WPA.ProfileEpoch
		wres, err := core.Analyze(deployed, agg, opts)
		if err != nil {
			return nil, fmt.Errorf("profsvc: gen %d analysis: %w", g, err)
		}
		gen.LayoutCacheHit = wres.Stats.GlobalCacheHit
		if gen.LayoutSHA, err = layoutSHA(wres.Directives, wres.Order); err != nil {
			return nil, fmt.Errorf("profsvc: gen %d layout: %w", g, err)
		}

		// Phase-4 relink: a new binary with a new content-hash build ID.
		cand, nHot, nCold, err := core.Relink(p, meta.IRKeys, wres, opts)
		if err != nil {
			return nil, fmt.Errorf("profsvc: gen %d relink: %w", g, err)
		}
		gen.HotModules, gen.ColdModules = nHot, nCold
		gen.HotReused = cand.HotReused
		gen.CandidateBuildID = cand.Binary.BuildID

		// The fleet profiles the candidate while it is measured, unless
		// no generation follows or the candidate has lost already. A
		// collection thrown away is joined before the next one starts.
		if g < cfg.generations() && !lost[cand.Binary.BuildID] {
			if ahead != nil {
				ahead.Join()
			}
			bin := cand.Binary
			ahead, aheadOf = par.Start(func() collection { return collect(bin, spec, fo) }), bin
		}

		if err := readBaseline(); err != nil {
			return nil, err
		}
		candRun, err := core.Measure(cand.Binary, evalCfg, base)
		if err != nil {
			return nil, fmt.Errorf("profsvc: gen %d candidate run: %w", g, err)
		}
		gen.CandidateCycles = candRun.Cycles
		hot := hotSet.Join()
		gen.Admit = score(hot)

		// Strict-improvement adoption: the candidate replaces the serving
		// binary only when it is measurably better. Equal-performance
		// alternates are never adopted, so the loop cannot oscillate and
		// the deployed cycle count is monotone non-increasing.
		if adopts(g, candRun.Cycles, deployedCycles) {
			deployed = cand.Binary
			deployedCycles = candRun.Cycles
			gen.Adopted = true
			lost = map[string]bool{deployed.BuildID: true}
		} else {
			lost[cand.Binary.BuildID] = true
		}
		gen.DeployedBuildID = deployed.BuildID
		gen.DeployedCycles = deployedCycles
		gen.SpeedupPct = speedupPct(out.BaselineCycles, deployedCycles)

		if n := len(out.Generations); n > 0 {
			prev := out.Generations[n-1]
			gen.FixedPoint = prev.CandidateBuildID == gen.CandidateBuildID &&
				prev.DeployedBuildID == gen.DeployedBuildID
		}
		out.Generations = append(out.Generations, gen)

		// Next generation's overlap reference: this generation's hot set.
		prevHot = hot
	}

	// The loop converged if a stable suffix reaches the final generation.
	for i := len(out.Generations) - 1; i > 0; i-- {
		if !out.Generations[i].FixedPoint {
			break
		}
		out.FixedPoint = true
		out.FixedPointGen = out.Generations[i].Index
	}
	out.Store = store.Stats()
	return out, nil
}

func speedupPct(base, cur uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (1 - float64(cur)/float64(base))
}

// layoutSHA fingerprints a layout decision by hashing the exact bytes of
// its cc_prof.txt and ld_prof.txt renderings.
func layoutSHA(d layoutfile.Directives, o layoutfile.SymbolOrder) (string, error) {
	cc, ld, err := layoutfile.Render(d, o)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(cc)
	h.Write(ld)
	return hex.EncodeToString(h.Sum(nil)), nil
}
