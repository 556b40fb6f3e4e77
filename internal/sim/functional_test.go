package sim_test

// The identity behind functional profiling runs: the timing model only adds
// cycles and counters, so a run with DisableUarch samples exactly what the
// modeled run samples.

import (
	"reflect"
	"testing"

	"propeller/internal/profile"
	"propeller/internal/sim"
)

// sampled is everything a sampling run produces for the profiler.
type sampled struct {
	Exit          int64
	Insts         uint64
	Faulted       bool
	PC, Inst      uint64
	Msg           string
	Profile       []byte // Result.Profile
	Batches       []int  // the OnBatch calls' lengths, in order
	Streamed      []byte // the OnSample stream, reassembled
	StreamedInsts uint64
}

// sample runs cfg materialized with an OnBatch callback, then streamed.
func sample(t *testing.T, run runFunc, cfg sim.Config) sampled {
	t.Helper()
	var s sampled
	mat := cfg
	mat.OnBatch = func(b []profile.Sample) { s.Batches = append(s.Batches, len(b)) }
	res, err := run(mat)
	if res == nil {
		t.Fatalf("nil result (err %v)", err)
	}
	s.Exit, s.Insts, s.Profile = res.Exit, res.Insts, res.Profile.AppendWire(nil)
	var re *sim.RunError
	if err != nil {
		if re, _ = err.(*sim.RunError); re == nil {
			t.Fatalf("error is not a RunError: %v", err)
		}
		s.Faulted, s.PC, s.Inst, s.Msg = true, re.PC, re.Inst, re.Msg
	}

	streamed := &profile.Profile{Period: cfg.LBRPeriod}
	str := cfg
	str.OnSample = func(smp profile.Sample) error {
		streamed.Samples = append(streamed.Samples, profile.Sample{Records: append([]profile.Branch(nil), smp.Records...)})
		return nil
	}
	if res, _ = run(str); res == nil {
		t.Fatal("nil streamed result")
	}
	s.Streamed, s.StreamedInsts = streamed.AppendWire(nil), res.Insts
	return s
}

// TestFunctionalSamplesMatchModeled: for every program and fault binary
// and every sampling grid of the differential suite, the run with
// DisableUarch equals the modeled run in exit value, instruction count,
// fault, profile bytes, OnBatch tiling and OnSample stream.
func TestFunctionalSamplesMatchModeled(t *testing.T) {
	var grids []sim.Config
	for _, v := range variants() {
		if v.cfg.LBRPeriod > 0 {
			grids = append(grids, sim.Config{LBRPeriod: v.cfg.LBRPeriod, LBRPhase: v.cfg.LBRPhase})
		}
	}
	batches := 0
	for _, s := range append(programs(t), faults(t)...) {
		for _, g := range grids {
			g.StackSize = 1 << 14
			if g.LBRPeriod < 97 {
				g.MaxInsts = 20_000 // as the differential suite's dense grids
			}
			modeled := sample(t, s.run, g)
			g.DisableUarch = true
			functional := sample(t, s.run, g)
			batches += len(modeled.Batches)
			if !reflect.DeepEqual(functional, modeled) {
				t.Errorf("%s period %d phase %d: functional run differs from modeled:\n got  %+v\n want %+v",
					s.name, g.LBRPeriod, g.LBRPhase, summary(functional), summary(modeled))
			}
		}
	}
	if batches == 0 {
		t.Error("no run handed over a batch")
	}
}

// summary cuts the byte fields to their first bytes for a failure message.
func summary(s sampled) sampled {
	s.Profile, s.Streamed = s.Profile[:min(len(s.Profile), 16)], s.Streamed[:min(len(s.Streamed), 16)]
	return s
}
