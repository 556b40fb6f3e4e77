package eval

import (
	"bytes"
	"strings"
	"testing"

	"propeller/internal/sim"
	"propeller/internal/workload"
)

func tinyConfig() Config {
	return Config{
		Spec:       workload.Tiny(),
		TrainInsts: 60_000_000,
		EvalInsts:  80_000_000,
		RunBolt:    true,
		Heatmaps:   true,
		HeatRows:   16,
		HeatCols:   24,
	}
}

func TestRunWorkloadTiny(t *testing.T) {
	res, err := RunWorkload(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseRun == nil || res.PORun == nil {
		t.Fatal("missing runs")
	}
	if res.PORun.Exit != res.BaseRun.Exit {
		t.Fatal("checksum mismatch")
	}
	// Tiny carries an integrity check, so BOLT must crash (§5.8 shape).
	if res.BOCrash == nil {
		t.Error("BOLT did not crash on an integrity-checked workload")
	}
	// Memory shapes: BOLT conversion uses more memory than the WPA.
	if res.BoltConvertMem <= res.WPAStats.ModeledBytes {
		t.Errorf("BOLT conversion memory %d not above WPA %d", res.BoltConvertMem, res.WPAStats.ModeledBytes)
	}
	// Size shapes: PM ~ slightly larger than Base; PO ~ Base; BM larger; BO largest.
	baseT := res.Base.Stats().Total()
	if res.PM.Stats().Total() <= baseT {
		t.Error("PM not larger than Base")
	}
	pmGrowth := float64(res.PM.Stats().Total()) / float64(baseT)
	if pmGrowth > 1.30 {
		t.Errorf("PM growth %.2fx far above the paper's 7-9%%", pmGrowth)
	}
	if res.BM.Stats().Total() <= baseT {
		t.Error("BM not larger than Base")
	}
	poGrowth := float64(res.PO.Stats().Total()) / float64(baseT)
	if poGrowth > 1.25 {
		t.Errorf("PO growth %.2fx too large", poGrowth)
	}
	if res.BO.Stats().Total() <= res.PO.Stats().Total() {
		t.Error("BOLT-optimized binary not larger than Propeller-optimized")
	}
	// Heat maps recorded.
	if res.BaseRun.Heat == nil || res.BaseRun.Heat.TouchedRows() == 0 {
		t.Error("baseline heat map empty")
	}
}

func TestReportRenders(t *testing.T) {
	res, err := RunWorkload(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Results: []*Result{res}}
	var buf bytes.Buffer
	rep.All(&buf)
	out := buf.String()
	for _, want := range []string{"Table 2", "Fig 4", "Fig 5", "Fig 6", "Table 3", "Fig 8", "Table 5", "Fig 9", "Crash", "tiny"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	var heatBuf bytes.Buffer
	rep.Fig7(&heatBuf)
	if !strings.Contains(heatBuf.String(), "Fig 7") {
		t.Error("Fig 7 missing")
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestSpeedupHelpers(t *testing.T) {
	a := &Run{Result: &sim.Result{Cycles: 1000}}
	b := &Run{Result: &sim.Result{Cycles: 900}}
	if s := Speedup(a, b); s < 9.9 || s > 10.1 {
		t.Errorf("Speedup = %f, want 10", s)
	}
	if Speedup(nil, b) != 0 || Speedup(a, nil) != 0 {
		t.Error("nil handling")
	}
	a.Counters.L1IMiss = 200
	b.Counters.L1IMiss = 100
	if r := CounterRatio(a, b, "I1"); r != 50 {
		t.Errorf("CounterRatio = %f, want 50", r)
	}
}
