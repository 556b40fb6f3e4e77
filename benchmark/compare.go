package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// benchmarkSpec is BENCHMARK.json, the committed contract: the names this
// program may print and the bound each end-to-end metric may worsen by.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares the runs of a change (b) with the runs of its parent (a)
// on one metric of one workload. worse is the share of a's median by
// which b's median is worse (negative: better); spread the wider of the
// two sets' quartile spreads. A spread beyond the bound cannot resolve a
// difference of the bound's size: the verdict is then unresolved, unless
// every run of b reads better than every run of a.
func judge(a, b []float64, m boundedMetric) (v verdict, worse, spread float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > m.Bound:
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return ok, worse, spread
		}
		return unresolved, worse, spread
	case worse > m.Bound:
		return regressed, worse, spread
	}
	return ok, worse, spread
}

// exactMetrics are simulated or counted, not timed: at equal seeds two
// runs of one commit must print them bit-equal, and a change meant only
// to speed the host must leave them alone.
var exactMetrics = []string{
	"opt_cycles_pct", "text_vs_pm_pct", "sim.train_minsts", "wpa.intra.hot_funcs",
	"linker.po.jumps_deleted", "linker.po.branches_shrunk", "linker.po.text_kb",
}

func loadSet(list string) ([]resultFile, error) {
	var set []resultFile
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, r)
	}
	return set, nil
}

// column gathers one metric of one workload across a set of runs.
func column(set []resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range set {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		if v, have := w.EndToEnd[metric]; have {
			out = append(out, v)
		} else if v, have := w.PerLayer[metric]; have {
			out = append(out, v)
		}
	}
	return out
}

func failedShare(set []resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range set {
		if w := r.Workloads[workload]; w != nil {
			attempted += w.Attempted
			failed += w.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareMain implements "benchmark compare A B": A and B are each one
// result.json or a comma-separated list of them (the runs of the parent
// and of the change). It exits non-zero on any regression.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the committed bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [--spec BENCHMARK.json] A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	spec, err := loadSpec(*specPath)
	var a, b []resultFile
	if err == nil {
		a, err = loadSet(fs.Arg(0))
	}
	if err == nil {
		b, err = loadSet(fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	names := map[string]bool{}
	for _, r := range a {
		for n := range r.Workloads {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	bad := false
	for _, w := range sorted {
		for _, m := range spec.EndToEnd {
			va, vb := column(a, w, m.Name), column(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, spread := judge(va, vb, m)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Printf("%-17s %-16s %-10s %.6g -> %.6g %s  ratio %.4f of base %.6g  worse by %+.2f%%  spread %.2f%%  bound %.2f%%  runs %d/%d\n",
				w, m.Name, v, ma, mb, m.Unit, mb/ma, ma, 100*worse, 100*spread, 100*m.Bound, len(va), len(vb))
			bad = bad || v == regressed
		}
		fa, fb := failedShare(a, w), failedShare(b, w)
		v := ok
		if fb > fa {
			v, bad = regressed, true
		}
		fmt.Printf("%-17s %-16s %-10s %.4f -> %.4f share\n", w, "failed_share", v, fa, fb)
		if len(a) == 1 && len(b) == 1 && a[0].Env.Seed == b[0].Env.Seed {
			for _, name := range exactMetrics {
				va, vb := column(a, w, name), column(b, w, name)
				if len(va) == 1 && len(vb) == 1 && va[0] != vb[0] {
					fmt.Printf("%-17s %-16s differs    %v -> %v (exact at equal seeds)\n", w, name, va[0], vb[0])
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
