package core

import (
	"fmt"

	"propeller/internal/bbaddrmap"
	"propeller/internal/fleetprof"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/wpa"
)

// FleetOptions switch Phase 3's profiling half from one training run to
// fleet-scale collection (§2, §3.1): Hosts simulated machines each run the
// workload with a distinct LBR sampling phase and stream their sample
// batches through the fleetprof transport into a sharded ingestion
// service; the merged fleet profile then feeds the whole-program analysis.
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

func (f FleetOptions) hosts() int {
	if f.Hosts < 1 {
		return 4
	}
	return f.Hosts
}

// CollectFleetProfile is the fleet-mode Phase 3 front half: run the
// metadata binary on every simulated host (distinct LBR phases), ship the
// per-host samples through the fleetprof pipeline, and return the merged
// profile. Host 0's run doubles as the training run whose cache-miss
// profile feeds §3.5. The returned stats carry the full ingestion
// accounting, including any rejected or duplicated batches.
//
// The returned run is host 0's, without a profile: its samples went to the
// collector. With trackMisses, host 0 alone drives the timing model and
// holds cycles, counters and LoadMisses; every other run, and host 0's
// without trackMisses, is functional (CollectProfile).
func CollectFleetProfile(bin *objfile.Binary, spec RunSpec, fo FleetOptions, trackMisses bool) (*profile.Profile, *sim.Result, fleetprof.IngestStats, error) {
	hosts := fo.hosts()
	// One shared Program: the decode table is safe for concurrent runs,
	// so every host runs off the same decoded text instead of decoding it
	// per host.
	prog, err := sim.Load(bin)
	if err != nil {
		return nil, nil, fleetprof.IngestStats{}, err
	}
	results := make([]*sim.Result, hosts)
	svc := fleetprof.NewService(fleetprof.ServiceConfig{
		Shards:          fo.Shards,
		WorkersPerShard: fo.WorkersPerShard,
		QueueDepth:      fo.QueueDepth,
		BuildID:         bin.BuildID,
	})
	if fo.OnService != nil {
		fo.OnService(svc)
	}
	collectors := make([]*fleetprof.Collector, hosts)
	for h := 0; h < hosts; h++ {
		cfg := spec.samplingConfig(trackMisses && h == 0)
		cfg.LBRPhase = uint64(h)
		collectors[h] = &fleetprof.Collector{
			Host:         h,
			BatchSamples: fo.BatchSamples,
			// The collector consumes samples on the simulation goroutine
			// as they are taken, so batches reach the service's shards
			// while the host is still executing.
			Source: &hostSource{
				prog: prog,
				cfg:  cfg,
				hdr:  profile.Header{Binary: "pm", BuildID: bin.BuildID, Period: spec.lbrPeriod()},
				host: h,
				res:  &results[h],
			},
		}
	}
	st, err := fleetprof.RunFleet(collectors, fleetprof.Transport{
		LossRate: fo.LossRate,
		DupRate:  fo.DupRate,
		Seed:     fo.Seed,
	}, svc)
	if err != nil {
		return nil, nil, st, fmt.Errorf("core: fleet collection failed: %w", err)
	}

	// Admission gate: refuse to relink on a profile that is too thin.
	// The map is decoded and indexed only for a gate that reads it. A
	// binary without a map skips the hot-function criterion; one whose map
	// does not decode must not open the gate unchecked.
	var lk *bbaddrmap.Lookup
	if bin.BBAddrMap != nil && fo.Gate.ReadsAddrMap() {
		m, err := bbaddrmap.Decode(bin.BBAddrMap)
		if err != nil {
			return nil, nil, st, fmt.Errorf("core: fleet admission gate: %w", err)
		}
		lk = bbaddrmap.NewLookup(m)
	}
	if rep := svc.Ready(fo.Gate, lk, hosts); !rep.Ready {
		return nil, nil, st, fmt.Errorf("core: fleet profile below admission gate: %s", rep.Reason)
	}

	merged, err := svc.MergedProfile()
	if err != nil {
		return nil, nil, st, err
	}
	return merged, results[0], st, nil
}

// hostSource streams one simulated host's LBR samples out of the running
// simulation into its collector: sim.Config.OnSample is the collector's
// emit callback, so sampling, batching and delivery all happen on the
// host's goroutine with zero intermediate materialization.
type hostSource struct {
	prog *sim.Program
	cfg  sim.Config
	hdr  profile.Header
	host int
	res  **sim.Result
}

func (s *hostSource) Header() profile.Header { return s.hdr }

func (s *hostSource) Samples(emit func(profile.Sample) error) error {
	cfg := s.cfg
	cfg.OnSample = emit
	res, err := s.prog.Run(cfg)
	if err != nil {
		return fmt.Errorf("core: fleet host %d run failed: %w", s.host, err)
	}
	*s.res = res
	return nil
}

// AnalyzeStreamed is Analyze: the fleet's merged profile is in memory too.
//
// Deprecated: use Analyze. The benchmark's second edition drops this
// wrapper.
func AnalyzeStreamed(bin *objfile.Binary, prof *profile.Profile, opts Options) (*wpa.Result, error) {
	return analyze(bin, wpa.Samples(prof), opts)
}
