package main

import "testing"

func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "op_s.p50", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "kblocks_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name string
		a, b []float64
		m    boundedMetric
		want verdict
	}{
		{"inside the bound", steady, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, lower, ok},
		{"outside the bound", steady, []float64{1.15, 1.16, 1.14, 1.15, 1.17}, lower, regressed},
		{"better is never a regression", steady, []float64{0.5, 0.51, 0.49, 0.5, 0.52}, lower, ok},
		{"higher is better: a drop regresses", steady, []float64{0.85, 0.86, 0.84, 0.85, 0.87}, higher, regressed},
		{"higher is better: a rise is ok", steady, []float64{1.15, 1.16, 1.14, 1.15, 1.17}, higher, ok},
		{"spread wider than the bound", []float64{0.8, 1.0, 1.2, 0.9, 1.1}, []float64{0.9, 1.1, 1.3, 1.0, 1.2}, lower, unresolved},
		{"wide spread, every run better", []float64{0.8, 1.0, 1.2, 0.9, 1.1}, []float64{0.5, 0.6, 0.7, 0.55, 0.65}, lower, ok},
		{"single runs compare by threshold", []float64{1.0}, []float64{1.2}, lower, regressed},
	} {
		got, worse, spread := judge(c.a, c.b, c.m)
		if got != c.want {
			t.Errorf("%s: verdict %s (worse by %.3f, spread %.3f), want %s", c.name, got, worse, spread, c.want)
		}
	}
	if _, worse, _ := judge([]float64{2}, []float64{3}, lower); worse != 0.5 {
		t.Errorf("worse = %v, want 0.5 of the base 2", worse)
	}
}

func TestFailedShare(t *testing.T) {
	set := []resultFile{
		{Workloads: map[string]*workloadResult{"w": {Attempted: 10, Failed: 1}}},
		{Workloads: map[string]*workloadResult{"w": {Attempted: 10, Failed: 0}}},
	}
	if got := failedShare(set, "w"); got != 0.05 {
		t.Errorf("failedShare = %v, want 0.05", got)
	}
	if got := failedShare(set, "absent"); got != 0 {
		t.Errorf("failedShare of an absent workload = %v, want 0", got)
	}
}
