package core

import (
	"fmt"

	"propeller/internal/fleetprof"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/wpa"
)

// FleetOptions switch Phase 3's profiling half from one training run to
// fleet-scale collection (§2, §3.1): Hosts simulated machines each sample
// the workload with a distinct LBR phase and stream their sample batches
// through the fleetprof transport into a sharded ingestion service; the
// merged fleet profile then feeds the whole-program analysis.
type FleetOptions struct {
	// Hosts is the number of simulated collector machines (default 4).
	Hosts int
	// Shards/WorkersPerShard/QueueDepth size the ingestion service.
	Shards          int
	WorkersPerShard int
	QueueDepth      int
	// LossRate/DupRate/Seed configure the transport's fault model.
	LossRate float64
	DupRate  float64
	Seed     uint64
	// BatchSamples is the collector batch size (default 64).
	BatchSamples int
	// Gate is the admission policy; a zero Gate admits any profile.
	Gate fleetprof.Gate
	// OnService, when non-nil, observes the ingestion service right after
	// it is created — the hook debug endpoints (wsc-propeller
	// -statusz-addr) use to expose the service's /statusz over HTTP.
	OnService func(*fleetprof.Service)
}

// HostCount is the number of simulated hosts: Hosts, or 4 when unset.
func (f FleetOptions) HostCount() int {
	if f.Hosts < 1 {
		return 4
	}
	return f.Hosts
}

// CollectFleetProfile is the fleet-mode Phase 3 front half: profile the
// metadata binary on every simulated host (distinct LBR phases), ship the
// per-host samples through the fleetprof pipeline, and return the merged
// profile. The returned stats carry the full ingestion accounting,
// including any rejected or duplicated batches.
//
// The hosts run one program on one input and differ only in their
// sampling phase, so a single run serves them all: one Program.Run on the
// calling goroutine samples every host's grid (sim.Config.OnGridSample)
// and pushes each sample into that host's collector Feed, which batches
// and ships it while the run goes on. Nothing is materialized per host.
// The merged profile and every modeled stat are what one run per host
// gives; but a host whose shard queue is full now stalls the run, and so
// every host, for its backoff.
//
// The returned run is that one run, without a profile: its samples went
// to the collectors. It is functional (CollectProfile) unless trackMisses
// asks for the §3.5 cache-miss profile, when it drives the timing model
// and holds cycles, counters and LoadMisses.
func CollectFleetProfile(bin *objfile.Binary, spec RunSpec, fo FleetOptions, trackMisses bool) (*profile.Profile, *sim.Result, fleetprof.IngestStats, error) {
	hosts := fo.HostCount()
	prog, err := sim.Load(bin)
	if err != nil {
		return nil, nil, fleetprof.IngestStats{}, err
	}
	svc := fleetprof.NewService(fleetprof.ServiceConfig{
		Shards:          fo.Shards,
		WorkersPerShard: fo.WorkersPerShard,
		QueueDepth:      fo.QueueDepth,
		BuildID:         bin.BuildID,
	})
	if fo.OnService != nil {
		fo.OnService(svc)
	}
	t := fleetprof.Transport{LossRate: fo.LossRate, DupRate: fo.DupRate, Seed: fo.Seed}
	hdr := profile.Header{Binary: "pm", BuildID: bin.BuildID, Period: spec.lbrPeriod()}
	feeds := make([]*fleetprof.Feed, hosts)
	for h := range feeds {
		c := &fleetprof.Collector{Host: h, BatchSamples: fo.BatchSamples}
		feeds[h] = c.Open(t, svc, hdr)
	}
	cfg := spec.samplingConfig(trackMisses)
	cfg.LBRGrids = hosts
	cfg.OnGridSample = func(h int, s profile.Sample) error {
		feeds[h].Add(s)
		return nil
	}
	run, err := prog.Run(cfg)
	stats := make([]fleetprof.CollectorStats, hosts)
	for h, f := range feeds {
		if err != nil {
			stats[h] = f.Stats() // a failed stream ships no final window
			continue
		}
		stats[h] = f.Close()
	}
	st := svc.Finish(stats)
	if err != nil {
		return nil, nil, st, fmt.Errorf("core: fleet collection failed: %w", err)
	}

	merged, err := svc.MergedProfile()
	if err != nil {
		return nil, nil, st, err
	}

	// Admission gate: refuse to relink on a profile that is too thin.
	// The map is decoded and indexed only for a gate that reads it.
	var hot []string
	if fo.Gate.ReadsAddrMap() {
		lk, err := fleetprof.AddrMapLookup(bin.BBAddrMap)
		if err != nil {
			return nil, nil, st, fmt.Errorf("core: fleet admission gate: %w", err)
		}
		hot = fleetprof.HotFuncs(merged, lk)
	}
	if reason := fo.Gate.Check(st, hot, hosts); reason != "" {
		return nil, nil, st, fmt.Errorf("core: fleet profile below admission gate: %s", reason)
	}
	return merged, run, st, nil
}

// AnalyzeStreamed is Analyze: the fleet's merged profile is in memory too.
//
// Deprecated: use Analyze. The benchmark's second edition drops this
// wrapper.
func AnalyzeStreamed(bin *objfile.Binary, prof *profile.Profile, opts Options) (*wpa.Result, error) {
	return analyze(bin, wpa.Samples(prof), opts)
}
