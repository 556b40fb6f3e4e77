// wsc-sim executes a linked binary on the WSA simulator, standing in for
// the production machine plus Linux perf: it reports the Table-4 hardware
// counters and can record LBR sample profiles and instruction heat maps.
//
// Usage:
//
//	wsc-sim app.wb
//	wsc-sim -record prof.lbr -lbr-period 211 app.wb      # perf record -b
//	wsc-sim -record prof.lbr -hosts 4 app.wb             # fleet: prof.lbr.0 .. prof.lbr.3
//	wsc-sim -heatmap heat.csv app.wb                     # Fig 7 data
//
// -hosts N emulates fleet collection: each host samples the workload with
// a distinct LBR phase (independently-timed production machines observe
// different slices of the same execution), writing one profile shard per
// host as <record>.<host>; one run samples every host's phase. Feed the
// shards to wsc-wpa with repeated -profile flags, or to the fleet
// ingestion service.
package main

import (
	"flag"
	"fmt"
	"os"

	"propeller/internal/heatmap"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
)

func main() {
	var (
		record    = flag.String("record", "", "write an LBR profile to this file")
		lbrPeriod = flag.Uint64("lbr-period", 211, "instructions between LBR samples")
		hosts     = flag.Int("hosts", 1, "fleet collection: sample as this many hosts (distinct LBR phases), writing <record>.<host> shards")
		maxInsts  = flag.Uint64("max-insts", 2_000_000_000, "instruction budget")
		heatOut   = flag.String("heatmap", "", "write a Fig-7 heat map CSV to this file")
		heatASCII = flag.Bool("heatmap-ascii", false, "render the heat map as text")
		arg0      = flag.Int64("arg0", 0, "initial r0")
		fast      = flag.Bool("fast", false, "functional mode (no uarch model)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: wsc-sim [flags] app.wb")
	}
	if *hosts > 1 && *record == "" {
		fatalf("-hosts needs -record (per-host profile shards)")
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	bin, err := objfile.DecodeBinary(data)
	if err != nil {
		fatalf("%v", err)
	}
	mach, err := sim.Load(bin)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := sim.Config{
		MaxInsts:     *maxInsts,
		Args:         [4]int64{*arg0},
		DisableUarch: *fast,
	}
	if *record != "" {
		cfg.LBRPeriod = *lbrPeriod
	}
	var heat *heatmap.Recorder
	if *heatOut != "" || *heatASCII {
		heat = heatmap.NewRecorder(bin.TextBase, int64(len(bin.Text)), 64, 100, *maxInsts/50)
		cfg.Heatmap = heat
	}
	var (
		res    *sim.Result
		shards []*profile.Profile
	)
	if *hosts > 1 {
		res, shards, err = mach.RunGrids(cfg, *hosts)
	} else {
		res, err = mach.Run(cfg)
	}
	if err != nil {
		fatalf("run failed: %v", err)
	}
	fmt.Printf("exit=%d insts=%d cycles=%d ipc=%.3f\n", res.Exit, res.Insts, res.Cycles, res.IPC())
	c := res.Counters
	fmt.Printf("I1(l1i_miss)=%d I2(l2_code_miss)=%d I3(fetch_stall_cyc)=%d\n", c.L1IMiss, c.L2CodeMiss, c.FetchStalls)
	fmt.Printf("T1(itlb_miss)=%d T2(stlb_miss)=%d B1(baclears)=%d B2(taken)=%d mispred=%d dsb_miss=%d\n",
		c.ITLBMiss, c.STLBMiss, c.Baclears, c.TakenBranch, c.Mispredicts, c.DSBMiss)
	if *record != "" {
		if *hosts > 1 {
			for h, prof := range shards {
				writeShard(*record, h, flag.Arg(0), prof)
			}
		} else {
			f, err := os.Create(*record)
			if err != nil {
				fatalf("%v", err)
			}
			res.Profile.Binary = flag.Arg(0)
			if err := res.Profile.Write(f); err != nil {
				fatalf("%v", err)
			}
			f.Close()
			fmt.Printf("wrote %d LBR samples to %s\n", len(res.Profile.Samples), *record)
		}
	}
	if heat != nil {
		if *heatOut != "" {
			f, err := os.Create(*heatOut)
			if err != nil {
				fatalf("%v", err)
			}
			heat.WriteCSV(f)
			f.Close()
			fmt.Printf("wrote heat map to %s\n", *heatOut)
		}
		if *heatASCII {
			heat.RenderASCII(os.Stdout, true)
		}
	}
}

func writeShard(base string, host int, binName string, prof *profile.Profile) {
	path := fmt.Sprintf("%s.%d", base, host)
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	prof.Binary = binName
	if err := prof.Write(f); err != nil {
		fatalf("%v", err)
	}
	f.Close()
	fmt.Printf("host %d: wrote %d LBR samples to %s\n", host, len(prof.Samples), path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsc-sim: "+format+"\n", args...)
	os.Exit(1)
}
