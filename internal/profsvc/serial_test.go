package profsvc

import (
	"bytes"
	"fmt"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/wpa"
)

// wireAnalyzeStreamed is core.AnalyzeStreamed as it was before the store's
// in-memory profile stopped going through the wire codec: encoded with
// AppendWire and decoded again by wpa.AnalyzeStream's reader.
func wireAnalyzeStreamed(bin *objfile.Binary, prof *profile.Profile, opts core.Options) (*wpa.Result, error) {
	if bin.BBAddrMap == nil {
		return nil, fmt.Errorf("core: binary has no BB address map; build with metadata first")
	}
	cfg := opts.WPA
	cfg.InterProc = cfg.InterProc || opts.InterProc
	if cfg.BuildID == "" {
		cfg.BuildID = bin.BuildID
	}
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		return nil, err
	}
	//lint:ignore SA1019 the oracle keeps the entry it was written against
	return wpa.AnalyzeStream(m, bytes.NewBuffer(prof.AppendWire(nil)), cfg)
}

// serialRunGenerations is RunGenerations as it was before the baseline run,
// the hot set and the candidate's fleet collection left the loop's
// critical path (its analysis through wireAnalyzeStreamed; its runs, like
// the driver's, through core.Measure; its adoption through the driver's
// adopts rule) as the oracle TestRunGenerationsMatchesSerialReplay holds
// the driver to: every job in order on the caller's goroutine, and each
// generation's collection of the serving binary made in that generation.
func serialRunGenerations(p *core.Program, cfg DriverConfig) (*LoopResult, error) {
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

	b := cfg.budget()
	evalCfg := sim.Config{MaxInsts: b.EvalInsts, Args: cfg.Args}
	base, err := core.Measure(meta.Binary, evalCfg, nil)
	if err != nil {
		return nil, fmt.Errorf("profsvc: baseline run: %w", err)
	}
	baseCycles := base.Cycles
	out := &LoopResult{
		Workload:        p.Name,
		BaselineBuildID: meta.Binary.BuildID,
		BaselineCycles:  baseCycles,
		BaselineExit:    base.Exit,
	}

	deployed := meta.Binary
	deployedCycles := baseCycles
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

		// Collect this epoch's fleet profile of the deployed binary. The
		// fleetprof-level gate stays zero: admission is the scorer's job.
		merged, _, ingest, err := core.CollectFleetProfile(deployed, spec, fo, false)
		if err != nil {
			return nil, fmt.Errorf("profsvc: gen %d collection: %w", g, err)
		}
		gen.EpochSamples = len(merged.Samples)

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

		if lkOf != deployed {
			if lk, err = fleetprof.AddrMapLookup(deployed.BBAddrMap); err != nil {
				return nil, fmt.Errorf("profsvc: gen %d admission: %w", g, err)
			}
			lkOf = deployed
		}
		hot := fleetprof.HotFuncs(merged, lk)
		gen.Admit = cfg.Scorer.Score(merged, agg, hot, ingest, fo.HostCount(), prevHot)
		gen.GateOpen = gen.Admit.Ready
		if !gen.Admit.Ready {
			// Keep serving the current binary; the store keeps
			// accumulating until the profile is representative.
			gen.DeployedBuildID = deployed.BuildID
			gen.DeployedCycles = deployedCycles
			gen.SpeedupPct = speedupPct(baseCycles, deployedCycles)
			out.Generations = append(out.Generations, gen)
			continue
		}

		// Whole-program analysis of the aggregate against the deployed
		// binary's BB address map, build ID enforced at the header. The
		// analysis is keyed by the store's aggregate fingerprint: when
		// the decayed aggregate is stationary across generations, the
		// epoch ID repeats and the layout comes straight from the cache.
		// Over a remote client the local store holds nothing for this
		// build, the ID stays empty, and the cache path is inert.
		opts.WPA.ProfileEpoch = ""
		if id, ok := store.EpochID(deployed.BuildID); ok {
			opts.WPA.ProfileEpoch = id
		}
		gen.ProfileEpochID = opts.WPA.ProfileEpoch
		wres, err := wireAnalyzeStreamed(deployed, agg, opts)
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

		candRun, err := core.Measure(cand.Binary, evalCfg, base)
		if err != nil {
			return nil, fmt.Errorf("profsvc: gen %d candidate run: %w", g, err)
		}
		candCycles := candRun.Cycles
		gen.CandidateCycles = candCycles

		// Strict-improvement adoption: the candidate replaces the serving
		// binary only when it is measurably better. Equal-performance
		// alternates are never adopted, so the loop cannot oscillate and
		// the deployed cycle count is monotone non-increasing.
		if adopts(g, candCycles, deployedCycles) {
			deployed = cand.Binary
			deployedCycles = candCycles
			gen.Adopted = true
		}
		gen.DeployedBuildID = deployed.BuildID
		gen.DeployedCycles = deployedCycles
		gen.SpeedupPct = speedupPct(baseCycles, deployedCycles)

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
