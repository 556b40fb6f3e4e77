package core_test

// Profiling runs are functional (sim.Config.DisableUarch) unless they record
// the §3.5 cache-miss profile. These tests hold what they produce to what a
// modeled run of the same configuration produces.

import (
	"bytes"
	"testing"

	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/layoutfile"
	"propeller/internal/objfile"
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

// TestCollectFleetProfileMatchesModeledHosts: the merged profile of two
// functional hosts is the one the ingestion service merges from two
// modeled runs at the same LBR phases.
func TestCollectFleetProfileMatchesModeledHosts(t *testing.T) {
	spec := core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}
	const hosts = 2
	for name, bin := range profilingShapes(t) {
		svc := fleetprof.NewService(fleetprof.ServiceConfig{BuildID: bin.BuildID})
		collectors := make([]*fleetprof.Collector, hosts)
		for h := range collectors {
			res := modeledRun(t, bin, sim.Config{MaxInsts: spec.MaxInsts, LBRPeriod: spec.LBRPeriod, LBRPhase: uint64(h)})
			res.Profile.Binary = "pm"
			collectors[h] = &fleetprof.Collector{Host: h, Source: fleetprof.ProfileSource{P: res.Profile}}
		}
		if _, err := fleetprof.RunFleet(collectors, fleetprof.Transport{}, svc); err != nil {
			t.Fatal(err)
		}
		want, err := svc.MergedProfile()
		if err != nil {
			t.Fatal(err)
		}

		got, _, _, err := core.CollectFleetProfile(bin, spec, core.FleetOptions{Hosts: hosts}, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Samples) == 0 || !bytes.Equal(got.AppendWire(nil), want.AppendWire(nil)) {
			t.Errorf("%s: merged profile of functional hosts differs from the modeled hosts' (%d and %d samples)", name, len(got.Samples), len(want.Samples))
		}
	}
}

// TestFleetMixedModeHosts: with trackMisses, host 0 runs modeled and the
// other hosts functional, all on one shared Program. The merged profile and
// the layout it yields are those of an all-functional collection, and host
// 0's run holds the miss profile.
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
	fo := core.FleetOptions{Hosts: 3, Shards: 2, WorkersPerShard: 2}
	collect := func(trackMisses bool) (wire, layout []byte, train *sim.Result) {
		merged, train, _, err := core.CollectFleetProfile(meta.Binary, spec, fo, trackMisses)
		if err != nil {
			t.Fatal(err)
		}
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
		return merged.AppendWire(nil), buf.Bytes(), train
	}
	mixedWire, mixedLayout, host0 := collect(true)
	wire, layout, functional := collect(false)
	if !bytes.Equal(mixedWire, wire) {
		t.Error("the merged profile depends on which hosts ran the timing model")
	}
	if len(layout) == 0 || !bytes.Equal(mixedLayout, layout) {
		t.Error("the layout depends on which hosts ran the timing model")
	}
	if len(host0.LoadMisses) == 0 || host0.Cycles <= host0.Insts {
		t.Errorf("host 0 tracked misses but reports %d missing loads, %d cycles for %d instructions", len(host0.LoadMisses), host0.Cycles, host0.Insts)
	}
	if functional.Cycles != functional.Insts || functional.Exit != host0.Exit {
		t.Errorf("functional host 0: %d cycles for %d instructions, exit %d; modeled exit %d", functional.Cycles, functional.Insts, functional.Exit, host0.Exit)
	}
}
