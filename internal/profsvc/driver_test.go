package profsvc

import (
	"net/http/httptest"
	"testing"

	"propeller/internal/core"
	"propeller/internal/fleetprof"
	"propeller/internal/workload"
)

func tinyProgram(t *testing.T) *core.Program {
	t.Helper()
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return prog.Core
}

func tinyDriverConfig() DriverConfig {
	return DriverConfig{
		Generations: 5,
		Hosts:       3,
		QueueDepth:  256, // generous: stability runs must see no drops
		TrainInsts:  3_000_000,
		EvalInsts:   6_000_000,
	}
}

// genFingerprint compresses one loop's decision sequence to the fields
// that must reproduce exactly.
func genFingerprint(r *LoopResult) []string {
	out := make([]string, 0, len(r.Generations))
	for _, g := range r.Generations {
		out = append(out, g.ProfiledBuildID+"|"+g.CandidateBuildID+"|"+
			g.DeployedBuildID+"|"+g.LayoutSHA)
	}
	return out
}

// TestGenerationLoopConverges is the headline property: the profile →
// relink → redeploy loop improves the binary, never regresses, and
// reaches a byte-identical fixed point within five generations — and
// routing publish/fetch through the real HTTP front end (streamed WPR3,
// build-ID enforced) reproduces the in-process loop decision for decision.
func TestGenerationLoopConverges(t *testing.T) {
	prog := tinyProgram(t)
	res, err := RunGenerations(prog, tinyDriverConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Generations) != 5 {
		t.Fatalf("got %d generations", len(res.Generations))
	}
	prev := 0.0
	for _, g := range res.Generations {
		if !g.GateOpen {
			t.Fatalf("gen %d: zero scorer should admit: %+v", g.Index, g.Admit)
		}
		if g.CandidateBuildID == "" || g.LayoutSHA == "" {
			t.Fatalf("gen %d produced no candidate", g.Index)
		}
		if g.CandidateBuildID == g.ProfiledBuildID {
			t.Fatalf("gen %d: relink did not produce a new content-hash build ID", g.Index)
		}
		if g.SpeedupPct < prev {
			t.Fatalf("gen %d: speedup regressed %.3f%% -> %.3f%%", g.Index, prev, g.SpeedupPct)
		}
		prev = g.SpeedupPct
	}
	if !res.Generations[0].Adopted {
		t.Fatal("first optimized binary should beat the metadata baseline")
	}
	if res.FinalSpeedupPct() <= 0 {
		t.Fatalf("final speedup %.3f%%, want > 0", res.FinalSpeedupPct())
	}
	if !res.FixedPoint {
		t.Fatalf("loop did not converge: %+v", genFingerprint(res))
	}
	if res.FixedPointGen > 5 {
		t.Fatalf("fixed point at generation %d, want within 5", res.FixedPointGen)
	}
	last := res.Generations[len(res.Generations)-1]
	if last.DeployedBuildID == res.BaselineBuildID {
		t.Fatal("loop never deployed an optimized binary")
	}

	// Same loop over the wire.
	direct := res
	store := NewStore(StoreConfig{})
	svc := NewService(store)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cfg := tinyDriverConfig()
	cfg.Store = store
	cfg.Service = svc
	cfg.Client = &Client{BaseURL: ts.URL}
	wired, err := RunGenerations(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}

	df, wf := genFingerprint(direct), genFingerprint(wired)
	for i := range df {
		if df[i] != wf[i] {
			t.Fatalf("gen %d diverges over HTTP:\ndirect: %s\nwired:  %s", i+1, df[i], wf[i])
		}
	}
	if !wired.FixedPoint || wired.FixedPointGen != direct.FixedPointGen {
		t.Fatalf("HTTP loop convergence differs: %v/%d vs %v/%d",
			wired.FixedPoint, wired.FixedPointGen, direct.FixedPoint, direct.FixedPointGen)
	}
}

// TestGenerationLoopReproducible: the whole K-generation sequence is
// bit-identical at every ingestion shard/worker count and under injected
// transport faults — the fleetprof, sim and wpa determinism contracts
// composed through the full loop.
func TestGenerationLoopReproducible(t *testing.T) {
	prog := tinyProgram(t)
	var ref []string
	for _, tc := range []struct {
		shards, workers int
		loss, dup       float64
	}{
		{1, 1, 0, 0},
		{4, 2, 0, 0},
		{2, 2, 0.25, 0.25},
	} {
		cfg := tinyDriverConfig()
		cfg.Generations = 3
		cfg.Shards = tc.shards
		cfg.WorkersPerShard = tc.workers
		cfg.LossRate = tc.loss
		cfg.DupRate = tc.dup
		cfg.Seed = 11
		res, err := RunGenerations(prog, cfg)
		if err != nil {
			t.Fatalf("shards=%d workers=%d loss=%g: %v", tc.shards, tc.workers, tc.loss, err)
		}
		fp := genFingerprint(res)
		if ref == nil {
			ref = fp
			continue
		}
		for i := range ref {
			if fp[i] != ref[i] {
				t.Fatalf("shards=%d workers=%d loss=%g: gen %d diverges:\nwant %s\ngot  %s",
					tc.shards, tc.workers, tc.loss, i+1, ref[i], fp[i])
			}
		}
	}
}

// TestClosedGateKeepsServing: when the scorer never opens, the loop keeps
// serving the baseline — no candidate, no adoption, no crash.
func TestClosedGateKeepsServing(t *testing.T) {
	cfg := tinyDriverConfig()
	cfg.Generations = 2
	cfg.Scorer = Scorer{Gate: fleetprof.Gate{MinSamples: 1 << 40}}
	res, err := RunGenerations(tinyProgram(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Generations {
		if g.GateOpen || g.CandidateBuildID != "" || g.Adopted {
			t.Fatalf("gen %d: closed gate still produced a candidate: %+v", g.Index, g)
		}
		if g.DeployedBuildID != res.BaselineBuildID {
			t.Fatalf("gen %d: deployed binary changed behind a closed gate", g.Index)
		}
		if g.SpeedupPct != 0 {
			t.Fatalf("gen %d: speedup %.3f%% with no deployment", g.Index, g.SpeedupPct)
		}
	}
	if res.FixedPoint {
		t.Fatal("a gate-closed loop should not report convergence")
	}
}
