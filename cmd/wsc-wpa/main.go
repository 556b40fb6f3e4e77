// wsc-wpa is the standalone whole-program analyzer of Phase 3 (the
// create_llvm_prof analog, §3.3): it maps LBR samples onto the metadata
// binary's BB address map — no disassembly — and emits the two layout
// artifacts for Phase 4.
//
// Usage:
//
//	wsc-wpa -binary pm.wb -profile prof.lbr -cc cc_prof.txt -ld ld_prof.txt
//	wsc-wpa -profile a.lbr -profile b.lbr ...   # merge fleet profile shards
//	wsc-wpa -interproc ...        # §4.7 inter-procedural layout
//	wsc-wpa -workers 8 ...        # §4.7 parallel analysis (0 = all cores)
//	wsc-wpa -ignore-build-id ...  # accept profiles from a different build
//
// -profile may be repeated (e.g. the per-host shards wsc-sim -hosts
// emits); the shards are merged deterministically in argument order
// before analysis. Profiles recorded against a different binary (build-ID
// mismatch) are rejected unless -ignore-build-id is given.
//
// The analysis is parallel by default (sharded sample aggregation plus a
// worker pool for the per-function layouts) and bit-identical at every
// worker count; -workers 1 forces the serial path. The per-phase wall
// times (aggregate / merge / layout) are printed after the summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"propeller/internal/bbaddrmap"
	"propeller/internal/layoutfile"
	"propeller/internal/memmodel"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/wpa"
)

// profileList collects repeated -profile flags in order.
type profileList []string

func (p *profileList) String() string { return fmt.Sprint([]string(*p)) }
func (p *profileList) Set(s string) error {
	*p = append(*p, s)
	return nil
}

func main() {
	var profPaths profileList
	var (
		binPath   = flag.String("binary", "", "metadata (PM) binary")
		ccOut     = flag.String("cc", "cc_prof.txt", "cluster directives output")
		ldOut     = flag.String("ld", "ld_prof.txt", "symbol ordering output")
		interProc = flag.Bool("interproc", false, "inter-procedural layout (§4.7)")
		naive     = flag.Bool("naive-exttsp", false, "quadratic merge retrieval (ablation)")
		hot       = flag.Uint64("hot-threshold", 1, "minimum block samples to be hot")
		workers   = flag.Int("workers", 0, "analysis parallelism: 0 = all cores, 1 = serial (§4.7; output is identical either way)")
		ignoreBID = flag.Bool("ignore-build-id", false, "accept profiles whose build ID does not match the binary")
	)
	flag.Var(&profPaths, "profile", "LBR profile from wsc-sim -record (repeat to merge fleet shards)")
	flag.Parse()
	if *binPath == "" || len(profPaths) == 0 {
		fatalf("usage: wsc-wpa -binary pm.wb -profile prof.lbr [-profile more.lbr ...] [-cc out] [-ld out] [-workers n]")
	}
	binData, err := os.ReadFile(*binPath)
	if err != nil {
		fatalf("%v", err)
	}
	bin, err := objfile.DecodeBinary(binData)
	if err != nil {
		fatalf("%v", err)
	}
	if bin.BBAddrMap == nil {
		fatalf("%s carries no BB address map; build with -basic-block-sections=labels", *binPath)
	}
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := wpa.Config{
		InterProc:     *interProc,
		NaiveExtTSP:   *naive,
		HotThreshold:  *hot,
		Workers:       *workers,
		BuildID:       bin.BuildID,
		IgnoreBuildID: *ignoreBID,
	}
	var res *wpa.Result
	if len(profPaths) > 1 {
		// Fleet shards: read every profile, merge deterministically in
		// argument order, and analyze the merged result.
		profs := make([]*profile.Profile, len(profPaths))
		for i, path := range profPaths {
			pf, err := os.Open(path)
			if err != nil {
				fatalf("%v", err)
			}
			profs[i], err = profile.Read(pf)
			pf.Close()
			if err != nil {
				fatalf("%s: %v", path, err)
			}
		}
		merged, err := profile.Merge(profs...)
		if err != nil {
			fatalf("merge: %v", err)
		}
		fmt.Printf("wsc-wpa: merged %d profile shards (%d samples)\n", len(profs), len(merged.Samples))
		res, err = wpa.Analyze(m, merged, cfg)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		// One profile streams through the chunked reader (§5.1).
		pf, err := os.Open(profPaths[0])
		if err != nil {
			fatalf("%v", err)
		}
		res, err = wpa.AnalyzeStream(m, pf, cfg)
		pf.Close()
		if err != nil {
			fatalf("%v", err)
		}
	}
	cc, err := os.Create(*ccOut)
	if err != nil {
		fatalf("%v", err)
	}
	if err := layoutfile.WriteDirectives(cc, res.Directives); err != nil {
		fatalf("%v", err)
	}
	cc.Close()
	ld, err := os.Create(*ldOut)
	if err != nil {
		fatalf("%v", err)
	}
	if err := layoutfile.WriteOrder(ld, res.Order); err != nil {
		fatalf("%v", err)
	}
	ld.Close()
	st := res.Stats
	fmt.Printf("wsc-wpa: %d samples (%d records) -> DCFG: %d funcs, %d nodes, %d edges; %d hot funcs; peak mem %.1fMB\n",
		st.Samples, st.Records, st.DCFGFuncs, st.DCFGNodes, st.DCFGEdges, st.HotFuncs,
		memmodel.MB(st.ModeledBytes))
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	fmt.Printf("wsc-wpa: %d workers (layout x%d over %d shards); wall time aggregate %.2fms + merge %.2fms + layout %.2fms = %.2fms\n",
		st.Workers, st.LayoutWorkers, st.LayoutShards,
		ms(st.AggregateWall), ms(st.MergeWall), ms(st.LayoutWall), st.AnalysisSeconds*1e3)
	fmt.Printf("wsc-wpa: wrote %s and %s\n", *ccOut, *ldOut)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsc-wpa: "+format+"\n", args...)
	os.Exit(1)
}
