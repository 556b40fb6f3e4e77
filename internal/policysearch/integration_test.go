package policysearch

import (
	"bytes"
	"testing"

	"propeller/internal/core"
	"propeller/internal/eval"
	"propeller/internal/workload"
)

func tinySearchConfig(workers int) Config {
	return Config{
		Seed:        11,
		Workers:     workers,
		Generations: 1,
		Lambda:      2,
		Rungs:       2,
		RungWidth:   4,
		MixFuncs:    2,
	}
}

func tinyEvaluators(t *testing.T) []WorkloadEvaluator {
	t.Helper()
	evs, err := NewEvaluators([]workload.Spec{workload.Tiny()}, core.Budget{
		TrainInsts: 20_000_000,
		EvalInsts:  10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestSearchTinyDeterministic drives the real pipeline — generate,
// profile, analyze, relink, simulate — through a small search budget at
// several pool widths: the journal (and with it the learned table) must
// be byte-identical, and the structural never-worse contract must hold
// against the genuinely-measured fixed policies.
func TestSearchTinyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline search in -short mode")
	}
	var firstJSON []byte
	for _, workers := range []int{1, 4} {
		res, err := Search(tinySearchConfig(workers), tinyEvaluators(t))
		if err != nil {
			t.Fatal(err)
		}
		smoke := res.SmokeCheck(0)
		if !smoke.NeverWorse {
			t.Errorf("workers=%d: learned policy worse than best fixed", workers)
		}
		var buf bytes.Buffer
		if err := res.WriteBenchJSON(&buf, 0); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			firstJSON = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), firstJSON) {
			t.Errorf("workers=%d: BENCH_search.json diverged from workers=1", workers)
		}
	}
}

// TestFixedPassLeaderboardTiny races the default policy field through the
// search's fixed pass on the tiny workload: every policy must produce a
// valid (checksum-preserving) binary, the analysis artifacts must be
// byte-identical at every replay worker count, and the leaderboard must
// not depend on the search's pool width.
func TestFixedPassLeaderboardTiny(t *testing.T) {
	var first *eval.Leaderboard
	for _, workers := range []int{1, 2} {
		res, err := Search(tinySearchConfig(workers), tinyEvaluators(t))
		if err != nil {
			t.Fatal(err)
		}
		lb := res.Leaderboard()
		nPol := len(eval.DefaultLayoutPolicies())
		if len(lb.Cells) != nPol {
			t.Fatalf("workers=%d: got %d cells, want %d", workers, len(lb.Cells), nPol)
		}
		if len(lb.Leaders) != 1 || lb.Leaders[0].Workload != "tiny" {
			t.Fatalf("workers=%d: leaders = %+v", workers, lb.Leaders)
		}
		if lb.BaselineCycles["tiny"] == 0 {
			t.Errorf("workers=%d: no baseline cycles recorded", workers)
		}
		for i, c := range lb.Cells {
			if want := eval.DefaultLayoutPolicies()[i].Name; c.Policy != want {
				t.Errorf("workers=%d: cell %d is %s, want %s", workers, i, c.Policy, want)
			}
			if !c.IdenticalAcrossWorkers {
				t.Errorf("workers=%d: %s: artifacts differ across replay worker counts", workers, c.Policy)
			}
			if c.Cycles == 0 || c.Insts == 0 || c.HotFuncs == 0 {
				t.Errorf("workers=%d: %s: degenerate cell %+v", workers, c.Policy, c)
			}
			if c.Policy == "pathclone" && c.HotPathFuncs == 0 {
				t.Errorf("workers=%d: pathclone raced with no reconstructed paths", workers)
			}
		}
		if s := lb.Smoke(); !s.PoliciesOK || !s.Identical {
			t.Errorf("workers=%d: smoke: %+v", workers, s)
		}
		if first == nil {
			first = lb
			continue
		}
		// The measured fields are wall time and, with candidates racing
		// for one cache, evaluation order; everything else must match.
		for i := range lb.Cells {
			a, b := first.Cells[i], lb.Cells[i]
			a.AnalysisSeconds, b.AnalysisSeconds = 0, 0
			a.FuncLayoutCacheHits, b.FuncLayoutCacheHits = 0, 0
			if a != b {
				t.Errorf("cell %d differs across pool widths:\n%+v\n%+v", i, a, b)
			}
		}
	}
}
