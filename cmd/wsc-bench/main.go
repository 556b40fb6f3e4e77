// wsc-bench regenerates the paper's evaluation tables and figures over the
// scaled workload catalog (the CLI twin of `go test -bench=.`).
//
// Usage:
//
//	wsc-bench -all
//	wsc-bench -table 3
//	wsc-bench -fig 6 -set wsc
//	wsc-bench -fig 7              # clang heat maps
//	wsc-bench -spec
//	wsc-bench -table 5 -workers 8 # parallel WPA (§4.7; 0 = all cores)
//
// The committed BENCH_*.json artifacts are written by `go test -bench=.`
// alone.
package main

import (
	"flag"
	"fmt"
	"os"

	"propeller/internal/eval"
	"propeller/internal/pprofutil"
	"propeller/internal/workload"
)

func main() {
	var (
		all     = flag.Bool("all", false, "every table and figure")
		table   = flag.Int("table", 0, "regenerate Table N (2, 3, 5)")
		fig     = flag.Int("fig", 0, "regenerate Fig N (4, 5, 6, 7, 8, 9)")
		spec    = flag.Bool("spec", false, "SPEC2017 results (§5.4)")
		set     = flag.String("set", "all", "workload set: all | wsc | oss | spec | smoke | tiny")
		noBolt  = flag.Bool("no-bolt", false, "skip the BOLT comparator arm")
		workers = flag.Int("workers", 0, "WPA parallelism: 0 = all cores, 1 = serial (§4.7; output is identical either way)")
	)
	prof := pprofutil.Register()
	flag.Parse()
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()
	specs, err := workload.Set(*set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsc-bench: %v\n", err)
		os.Exit(2)
	}
	if !*all && *table == 0 && *fig == 0 && !*spec {
		flag.Usage()
		os.Exit(2)
	}

	if *fig == 7 {
		specs = []workload.Spec{workload.Clang()}
	}
	var results []*eval.Result
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "wsc-bench: evaluating %s...\n", s.Name)
		cfg := eval.Config{
			Spec:        s,
			RunBolt:     !*noBolt,
			Heatmaps:    *fig == 7 || *all,
			Workstation: !s.Integrity && s.Name != "search",
			WPAWorkers:  *workers,
		}
		res, err := eval.RunWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsc-bench: %s: %v\n", s.Name, err)
			os.Exit(1)
		}
		results = append(results, res)
	}
	rep := &eval.Report{Results: results}
	w := os.Stdout
	switch {
	case *all:
		rep.All(w)
		fmt.Fprintln(w)
		rep.Fig7(w)
	case *table == 2:
		rep.Table2(w)
	case *table == 3:
		rep.Table3(w)
	case *table == 5:
		rep.Table5(w)
	case *fig == 4:
		rep.Fig4(w)
	case *fig == 5:
		rep.Fig5(w)
	case *fig == 6:
		rep.Fig6(w)
	case *fig == 7:
		rep.Fig7(w)
	case *fig == 8:
		rep.Fig8(w)
	case *fig == 9:
		rep.Fig9(w)
	case *spec:
		rep.SPECTable(w)
	default:
		fmt.Fprintf(os.Stderr, "wsc-bench: nothing to do for -table %d / -fig %d\n", *table, *fig)
		os.Exit(2)
	}
}
