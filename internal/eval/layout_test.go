package eval

import (
	"bytes"
	"math"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/core"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// TestLayoutEvalReplaysUncached evaluates one policy through one
// evaluator at two fidelities. Only each evaluation's first analysis may
// read the layout cache: the first evaluation meets an empty cache, and
// the second hits exactly one analysis's worth of entries. A replay served
// from the cache would add hits to both, and its byte comparison would
// hold the cache against itself. The count is the cache's own: a warm
// analysis is served whole by its global artifact entry, which counts no
// per-function hit in the cell.
func TestLayoutEvalReplaysUncached(t *testing.T) {
	e, err := NewLayoutEval(workload.Tiny(), core.Budget{TrainInsts: 20_000_000, EvalInsts: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := PolicyByName("fw-heavy")

	// One analysis's worth: a second analysis against a warm cache.
	cfg := pol.wpaConfig(1, e.paths)
	cfg.Cache, cfg.ProfileEpoch = buildsys.NewCache(), "probe"
	for i := 0; i < 2; i++ {
		if _, err := wpa.Analyze(func() (*bbaddrmap.Map, error) { return e.m, nil }, wpa.Prebuilt(e.agg), cfg); err != nil {
			t.Fatal(err)
		}
	}
	want := cfg.Cache.Stats().Hits
	if want == 0 {
		t.Fatal("a warm analysis hit nothing in the cache")
	}

	for i, insts := range []uint64{e.FullInsts(), e.FullInsts() / 2} {
		cell, err := e.EvaluateInsts(pol, insts)
		if err != nil {
			t.Fatal(err)
		}
		if !cell.IdenticalAcrossWorkers {
			t.Errorf("evaluation %d: artifacts differ across replay worker counts", i)
		}
		if got := e.cache.Stats().Hits; got != int64(i)*want {
			t.Errorf("after evaluation %d: %d cache hits, want %d", i, got, int64(i)*want)
		}
	}
}

// TestLayoutSmokeAndJSON checks the CI contract evaluation and artifact
// shape on synthetic results.
func TestLayoutSmokeAndJSON(t *testing.T) {
	res := NewLeaderboard()
	var cells []LayoutCell
	for _, p := range DefaultLayoutPolicies() {
		cy := uint64(100)
		if p.Name == "fw-heavy" {
			cy = 90 // a non-default winner
		}
		cells = append(cells, LayoutCell{
			Workload: "w", Policy: p.Name, Cycles: cy, Insts: 1,
			IdenticalAcrossWorkers: true,
		})
	}
	res.Add("w", 200, cells)
	if l := res.Leaders; len(l) != 1 || l[0].Policy != "fw-heavy" || math.Abs(l[0].MarginPct-10) > 1e-9 {
		t.Errorf("leaders = %+v, want fw-heavy by 10%%", l)
	}
	if c := res.Cells[3]; c.Policy != "fw-heavy" || math.Abs(c.DeltaVsDefaultPct-10) > 1e-9 {
		t.Errorf("cell %+v, want fw-heavy 10%% ahead of the default", c)
	}
	s := res.Smoke()
	if !s.OK || !s.PoliciesOK || !s.Identical || !s.NonDefaultWin {
		t.Errorf("smoke on a passing leaderboard: %+v", s)
	}
	// Remove the win: smoke must fail NonDefaultWin.
	for i := range res.Cells {
		res.Cells[i].Cycles = 100
	}
	if s := res.Smoke(); s.OK || s.NonDefaultWin {
		t.Errorf("smoke missed the absent non-default win: %+v", s)
	}
	// Drop a policy: PoliciesOK must fail.
	res.Cells = res.Cells[1:]
	if s := res.Smoke(); s.OK || s.PoliciesOK {
		t.Errorf("smoke missed the missing policy: %+v", s)
	}

	var buf bytes.Buffer
	if err := res.WriteBenchJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"benchmark": "LayoutTournament"`, `"records"`, `"leaders"`, `"smoke"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("artifact missing %s", want)
		}
	}
}
