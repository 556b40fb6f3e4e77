package core_test

// Profiling runs are functional (sim.Config.DisableUarch) unless they record
// the §3.5 cache-miss profile. These tests hold what they produce to what a
// modeled run of the same configuration produces.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

// profilingShapes are the tiny workload and the profile-deep shape,
// 505.mcf, at a size that keeps the runs short.
func profilingShapes(t *testing.T) map[string]*objfile.Binary {
	t.Helper()
	specs := []workload.Spec{workload.Tiny()}
	for _, s := range workload.SPECInt() {
		if s.Name == "505.mcf" {
			s.Requests = 4000
			specs = append(specs, s)
		}
	}
	out := map[string]*objfile.Binary{}
	for _, spec := range specs {
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := core.BuildWithMetadata(prog.Core, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Name] = meta.Binary
	}
	return out
}

// modeledRun is the profiling run with the timing model on.
func modeledRun(t *testing.T, bin *objfile.Binary, cfg sim.Config) *sim.Result {
	t.Helper()
	p, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCollectProfileMatchesModeledRun: CollectProfile's profile is the
// bytes a modeled run of the same configuration samples, its run carries
// the modeled run's exit and instruction count but no timing, and with
// trackMisses it is the modeled run.
func TestCollectProfileMatchesModeledRun(t *testing.T) {
	spec := core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}
	for name, bin := range profilingShapes(t) {
		want := modeledRun(t, bin, sim.Config{MaxInsts: spec.MaxInsts, LBRPeriod: spec.LBRPeriod})
		want.Profile.Binary = "pm"
		wantWire := want.Profile.AppendWire(nil)
		if len(want.Profile.Samples) < 1000 {
			t.Fatalf("%s: %d samples", name, len(want.Profile.Samples))
		}

		prof, run, err := core.CollectProfile(bin, spec, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prof.AppendWire(nil), wantWire) {
			t.Errorf("%s: functional profile differs from the modeled run's", name)
		}
		if run.Exit != want.Exit || run.Insts != want.Insts || run.Cycles != run.Insts || run.Counters != (sim.Counters{}) {
			t.Errorf("%s: run exit %d insts %d cycles %d %+v; modeled exit %d insts %d", name, run.Exit, run.Insts, run.Cycles, run.Counters, want.Exit, want.Insts)
		}

		prof, run, err = core.CollectProfile(bin, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(prof.AppendWire(nil), wantWire) || run.Cycles != want.Cycles || run.Counters != want.Counters || len(run.LoadMisses) == 0 {
			t.Errorf("%s: the miss-tracking run is not the modeled run: cycles %d, modeled %d, %d missing loads", name, run.Cycles, want.Cycles, len(run.LoadMisses))
		}
	}
}

// perHostCollection is fleet collection as it was before one run served
// every host: a modeled run per host at LBR phase h (with the miss profile
// on host 0's when trackMisses), each host's stored samples replayed
// through its own collector into a service sized by fo. It returns the
// merged profile's bytes, the ingestion stats and host 0's run.
func perHostCollection(t *testing.T, bin *objfile.Binary, spec core.RunSpec, fo core.FleetOptions, trackMisses bool) ([]byte, fleetprof.IngestStats, *sim.Result) {
	t.Helper()
	svc := fleetprof.NewService(fleetprof.ServiceConfig{Shards: fo.Shards, WorkersPerShard: fo.WorkersPerShard, QueueDepth: fo.QueueDepth, BuildID: bin.BuildID})
	collectors := make([]*fleetprof.Collector, fo.Hosts)
	profiles := make([]*profile.Profile, fo.Hosts)
	var host0 *sim.Result
	for h := range collectors {
		res := modeledRun(t, bin, sim.Config{MaxInsts: spec.MaxInsts, LBRPeriod: spec.LBRPeriod, LBRPhase: uint64(h), TrackLoadMisses: trackMisses && h == 0})
		res.Profile.Binary = "pm"
		collectors[h] = &fleetprof.Collector{Host: h, BatchSamples: fo.BatchSamples}
		profiles[h] = res.Profile
		if h == 0 {
			host0 = res
		}
	}
	st, err := fleetprof.RunFleet(collectors, profiles, fleetprof.Transport{LossRate: fo.LossRate, DupRate: fo.DupRate, Seed: fo.Seed}, svc)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := svc.MergedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Samples) == 0 {
		t.Fatal("empty merged profile")
	}
	return merged.AppendWire(nil), st, host0
}

// modeledStats is st without the fields real scheduling moves: queue-full
// rejects and retries, the queue high-water mark, backoff time, and
// duplicates that vanish at a full queue.
func modeledStats(st fleetprof.IngestStats) fleetprof.IngestStats {
	st.QueueFullRejects, st.QueueHighWater, st.StallSeconds, st.RetriedSends, st.DuplicateBatches = 0, 0, 0, 0, 0
	return st
}

// fleetCells are the host counts and transport faults shared and per-host
// collection are held equal at. The queues are deep enough that no batch
// is dropped, which would depend on scheduling.
func fleetCells() []core.FleetOptions {
	var out []core.FleetOptions
	for _, hosts := range []int{1, 2, 3, 8} {
		for _, loss := range []float64{0, 0.2} {
			out = append(out, core.FleetOptions{Hosts: hosts, Shards: 2, WorkersPerShard: 2, QueueDepth: 4096,
				LossRate: loss, DupRate: loss / 2, Seed: 5, BatchSamples: 32})
		}
	}
	return out
}

// TestCollectFleetProfileMatchesModeledHosts: one shared functional run
// feeding every host's collector gives the merged profile bytes, and every
// modeled ingestion stat, that one modeled run per host gives, at hosts
// {1, 2, 3, 8}, with and without loss and duplication.
func TestCollectFleetProfileMatchesModeledHosts(t *testing.T) {
	spec := core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}
	for name, bin := range profilingShapes(t) {
		for _, fo := range fleetCells() {
			want, wantSt, _ := perHostCollection(t, bin, spec, fo, false)
			got, run, st, err := core.CollectFleetProfile(bin, spec, fo, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.AppendWire(nil), want) {
				t.Errorf("%s hosts=%d loss=%g: merged profile of the shared run differs from the per-host runs'", name, fo.Hosts, fo.LossRate)
			}
			if !reflect.DeepEqual(modeledStats(st), modeledStats(wantSt)) {
				t.Errorf("%s hosts=%d loss=%g: stats %+v, per-host %+v", name, fo.Hosts, fo.LossRate, modeledStats(st), modeledStats(wantSt))
			}
			if fo.LossRate > 0 && st.LostDeliveries == 0 {
				t.Errorf("%s hosts=%d: no delivery lost at loss %g", name, fo.Hosts, fo.LossRate)
			}
			if run.Cycles != run.Insts || run.Profile != nil {
				t.Errorf("%s: the shared run is not functional or kept a profile", name)
			}
		}
	}
}

// TestFleetMixedModeHosts: with trackMisses, the shared run drives the
// timing model. It is host 0's modeled run with the miss profile (cycles,
// counters, LoadMisses), and the merged profile, the modeled stats and the
// layout they yield are those of per-host collection with host 0 modeled,
// and of an all-functional shared collection.
func TestFleetMixedModeHosts(t *testing.T) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	meta, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}
	layout := func(merged *profile.Profile) []byte {
		wres, err := core.Analyze(meta.Binary, merged, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := layoutfile.WriteDirectives(&buf, wres.Directives); err != nil {
			t.Fatal(err)
		}
		if err := layoutfile.WriteOrder(&buf, wres.Order); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, fo := range fleetCells() {
		name := fmt.Sprintf("hosts=%d loss=%g", fo.Hosts, fo.LossRate)
		want, wantSt, host0 := perHostCollection(t, meta.Binary, spec, fo, true)
		mixed, train, st, err := core.CollectFleetProfile(meta.Binary, spec, fo, true)
		if err != nil {
			t.Fatal(err)
		}
		functional, _, _, err := core.CollectFleetProfile(meta.Binary, spec, fo, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mixed.AppendWire(nil), want) || !bytes.Equal(functional.AppendWire(nil), want) {
			t.Errorf("%s: the merged profile depends on which runs drove the timing model", name)
		}
		if !reflect.DeepEqual(modeledStats(st), modeledStats(wantSt)) {
			t.Errorf("%s: stats %+v, per-host %+v", name, modeledStats(st), modeledStats(wantSt))
		}
		if l := layout(mixed); len(l) == 0 || !bytes.Equal(l, layout(functional)) {
			t.Errorf("%s: the layout depends on which runs drove the timing model", name)
		}
		if len(train.LoadMisses) == 0 || train.Cycles != host0.Cycles || train.Counters != host0.Counters ||
			!reflect.DeepEqual(train.LoadMisses, host0.LoadMisses) || train.Exit != host0.Exit || train.Insts != host0.Insts {
			t.Errorf("%s: the miss-tracking run (%d cycles, %d missing loads) is not host 0's modeled run (%d cycles, %d)",
				name, train.Cycles, len(train.LoadMisses), host0.Cycles, len(host0.LoadMisses))
		}
	}
}
