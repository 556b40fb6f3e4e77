package main

// tracedOp runs one op phase by phase under the recorder, probes every
// layer on what it produced, and returns the op's per-layer metrics.
// untraced is the reference op of this run: its decisions, its cost model
// and, for the service loop, its accounting over all generations.
func (f *fixture) tracedOp(rec *recorder, op int, untraced *outcome) (map[string]float64, error) {
	a, err := f.phased(rec, op)
	if err == nil {
		err = a.checkAgainst(untraced)
	}
	if err != nil {
		return nil, err
	}
	m, err := probeLayers(rec, op, f, a)
	if err != nil {
		return nil, err
	}

	phase := func(name string) float64 { return rec.get(a.phases[name]).seconds() }
	for _, name := range []string{"build_pm", "cache_ir", "collect", "analyze", "relink"} {
		m["core."+name+".s"] = phase(name)
	}
	m["core.op.s"] = rec.get(a.root).seconds()
	m["core.unattributed_share"] = selfTimes(rec.spans)[a.root].Seconds() / m["core.op.s"]
	m["core.hot_fraction"] = float64(a.hot) / float64(a.hot+a.cold)
	m["buildsys.exec.actions"] = float64(a.meta.Exec.Actions + a.po.Exec.Actions)

	// The part of each phase that the standalone layer probes account for.
	// Relink decodes the cold objects only; the probe decoded all of them.
	coldShare := float64(a.cold) / float64(a.hot+a.cold)
	m["core.build_pm.probe_ratio"] = (m["ir.encode.s"] + m["ir.decode.s"] + m["codegen.labels.s"] +
		2*m["objfile.encode.s"] + m["linker.pm.s"]) / phase("build_pm")
	m["core.relink.probe_ratio"] = (m["codegen.list.s"] + coldShare*m["objfile.decode.s"] + m["linker.po.s"]) / phase("relink")

	objCache := a.opts.ObjCache
	if res := untraced.res; res != nil {
		m["core.model_ratio.phase2"] = (phase("build_pm") + phase("cache_ir")) / res.Phase2.TotalCost
		m["core.model_ratio.phase3"] = phase("analyze") / res.Phase3.TotalCost
		m["core.model_ratio.phase4"] = phase("relink") / res.Phase4.TotalCost
		m["core.collect.probe_ratio"] = (m["sim.load.s"] + m["sim.lbr.s"]) / phase("collect")
		layout := m["wpa.intra.s"]
		if f.def.InterProc {
			layout = m["wpa.interproc.s"]
		}
		m["core.analyze.probe_ratio"] = (m["bbaddrmap.decode.s"] + m["wpa.aggregate.s"] + layout) / phase("analyze")
	} else {
		// Service loop: the traced op is its first generation; what only a
		// whole loop shows (warm relinks, adoption, convergence) comes from
		// the untraced loop of the same inputs.
		m["core.collect.probe_ratio"] = (m["sim.load.s"] + m["sim.stream.s"]) / phase("collect")
		m["core.analyze.probe_ratio"] = (m["bbaddrmap.decode.s"] + m["profile.encode.s"] + m["wpa.stream.s"]) / phase("analyze")
		m["fleetprof.collect.s"] = phase("collect")
		m["profsvc.publish.s"] = phase("publish")
		m["profsvc.fetch.s"] = phase("fetch")
		st := a.ingest
		m["fleetprof.batches"] = float64(st.SentBatches)
		m["fleetprof.retry_share"] = float64(st.RetriedSends) / float64(st.SentBatches)
		m["fleetprof.dup_share"] = float64(st.DuplicateBatches) / float64(st.AcceptedBatches+st.DuplicateBatches)
		m["fleetprof.queue_high_water"] = float64(st.QueueHighWater)

		loop := untraced.loop
		var hot, reused, adopted, cacheHits float64
		for _, g := range loop.Generations {
			hot += float64(g.HotModules)
			reused += float64(g.HotReused)
			if g.Adopted {
				adopted++
			}
			if g.LayoutCacheHit {
				cacheHits++
			}
		}
		m["profsvc.hot_reused_share"] = reused / hot
		m["profsvc.adopted_gens"] = adopted
		m["profsvc.fixed_point_gen"] = float64(loop.FixedPointGen)
		m["wpa.layout_cache.hit_share"] = cacheHits / float64(len(loop.Generations))
		objCache = untraced.opts.ObjCache
	}
	cs := objCache.Stats()
	m["buildsys.objcache.hit_share"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	return m, nil
}
