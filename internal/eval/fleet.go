package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

// The fleet-collection scaling sweep: how many simulated collector hosts
// feed the ingestion service, at which shard counts, under which
// transport loss rates, each host profiling the tiny workload. Fixed
// here, so every producer of BENCH_fleetprof.json runs the sweep its
// committed baseline records.
var (
	fleetSweepHosts     = []int{1, 4, 16, 64}
	fleetSweepShards    = []int{1, 2, 4, 8}
	fleetSweepLossRates = []float64{0, 0.2}
)

const (
	fleetSweepTrainInsts = 4_000_000
	fleetSweepLBRPeriod  = 211
)

// FleetPoint is one point of the BENCH_fleetprof.json curve.
type FleetPoint struct {
	Hosts    int     `json:"hosts"`
	Shards   int     `json:"shards"`
	LossRate float64 `json:"lossRate"`

	AcceptedBatches int64 `json:"acceptedBatches"`
	AcceptedSamples int64 `json:"acceptedSamples"`
	// DuplicateBatches counts dup copies the service deduplicated; a dup
	// arriving at a momentarily full queue vanishes uncounted, so the
	// count depends on real scheduling — "measured" keeps it out of the
	// benchdiff gate (planned dups are deterministic, observed ones not).
	DuplicateBatches int64 `json:"measuredDuplicateBatches"`
	LostDeliveries   int64 `json:"lostDeliveries"`
	// RetriedSends includes queue-full retries, which depend on real
	// scheduling; the "measured" tag keeps it out of the benchdiff gate.
	RetriedSends int64 `json:"measuredRetriedSends"`

	// MakespanSeconds is the modeled collection+ingestion wall time at
	// this shard count (monotone non-increasing in Shards by model).
	MakespanSeconds float64 `json:"makespanSeconds"`
	// MergedSHA256 fingerprints the merged profile bytes: equal across
	// every shard count and loss rate at the same host count.
	MergedSHA256 string `json:"mergedSHA256"`
}

// FleetSweepResult is the sweep's outcome: the grid it ran, one point per
// (hosts, loss, shards) cell, and the profiled binary's build ID.
type FleetSweepResult struct {
	Hosts     []int
	Shards    []int
	LossRates []float64
	Points    []FleetPoint
	BuildID   string
}

// WriteBenchJSON writes the BENCH_fleetprof.json artifact, which
// BenchmarkFleetProf alone produces.
func (r *FleetSweepResult) WriteBenchJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"benchmark": "FleetProf",
		"hosts":     r.Hosts,
		"shards":    r.Shards,
		"lossRates": r.LossRates,
		"records":   r.Points,
	})
}

// FleetSweep runs the fleet ingestion scaling study: a small workload is
// built with metadata once, one run samples it for all of maxHosts
// simulated machines (a grid per host, distinct LBR phases), and then every
// (hosts, shards, loss) cell replays the stored per-host profiles through
// the collectors' feeds into a fresh ingestion service. Per-host profiles
// are generated once and prefix-sliced per host count, so the sweep
// isolates ingestion behavior from simulation cost.
func FleetSweep() (*FleetSweepResult, error) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		return nil, err
	}
	meta, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		return nil, err
	}
	bin := meta.Binary
	maxHosts := slices.Max(fleetSweepHosts)

	sprog, err := sim.Load(bin)
	if err != nil {
		return nil, err
	}
	// Functional: only the samples are read (core.CollectProfile).
	_, profiles, err := sprog.RunGrids(sim.Config{
		MaxInsts:     fleetSweepTrainInsts,
		LBRPeriod:    fleetSweepLBRPeriod,
		DisableUarch: true,
	}, maxHosts)
	if err != nil {
		return nil, fmt.Errorf("eval: fleet hosts' run failed: %w", err)
	}
	for _, p := range profiles {
		p.Binary = "pm"
	}

	res := &FleetSweepResult{Hosts: fleetSweepHosts, Shards: fleetSweepShards, LossRates: fleetSweepLossRates, BuildID: bin.BuildID}
	for _, hosts := range res.Hosts {
		for _, loss := range res.LossRates {
			for _, shards := range res.Shards {
				svc := fleetprof.NewService(fleetprof.ServiceConfig{
					Shards:     shards,
					BuildID:    bin.BuildID,
					QueueDepth: 256, // generous: the sweep measures modeled time, not real stalls
				})
				collectors := make([]*fleetprof.Collector, hosts)
				for h := 0; h < hosts; h++ {
					collectors[h] = &fleetprof.Collector{
						Host: h,
						// The sweep's contract is a bit-identical merged
						// profile at every shard count; the bounded-retry
						// drop/adapt path depends on real scheduling (64
						// hosts can outrun one queue's drain rate), so the
						// sweep retries until the queue drains, like the
						// makespan it reports measures modeled time, not
						// real stalls.
						MaxAttempts: 1 << 30,
					}
				}
				st, err := fleetprof.RunFleet(collectors, profiles[:hosts], fleetprof.Transport{
					LossRate: loss,
					DupRate:  loss / 2,
					Seed:     7,
				}, svc)
				if err != nil {
					return nil, fmt.Errorf("eval: fleet hosts=%d shards=%d loss=%g: %w", hosts, shards, loss, err)
				}
				merged, err := svc.MergedProfile()
				if err != nil {
					return nil, err
				}
				sum := sha256.Sum256(merged.AppendWire(nil))
				res.Points = append(res.Points, FleetPoint{
					Hosts:            hosts,
					Shards:           shards,
					LossRate:         loss,
					AcceptedBatches:  st.AcceptedBatches,
					AcceptedSamples:  st.AcceptedSamples,
					DuplicateBatches: st.DuplicateBatches,
					LostDeliveries:   st.LostDeliveries,
					RetriedSends:     st.RetriedSends,
					MakespanSeconds:  st.ModeledMakespan(shards),
					MergedSHA256:     hex.EncodeToString(sum[:]),
				})
			}
		}
	}
	return res, nil
}
