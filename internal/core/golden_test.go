package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/codegen"
	"propeller/internal/core"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profsvc"
	"propeller/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/build_artifacts.json from this tree's output")

const goldenPath = "testdata/build_artifacts.json"

func objectsSHA(objs []*objfile.Object) string {
	h := sha256.New()
	for _, o := range objs {
		h.Write(objfile.EncodeObject(o))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// binarySHA hashes the whole encoded binary: beside the image the build ID
// covers, its symbols, placed sections, address map, CFI, LSDA and debug.
func binarySHA(bin *objfile.Binary) string {
	sum := sha256.Sum256(objfile.EncodeBinary(bin))
	return hex.EncodeToString(sum[:])
}

// buildArtifacts is everything one catalog workload's builds decide, as
// name → hash or build ID: the IR cache keys, then per data-in-code
// setting the labels (PM) and list (PO) objects and binaries (build ID and
// encoded bytes) of an intra-procedural optimize run (and, with tables in
// text, an inter-procedural one), and the all-sections objects and binary.
func buildArtifacts(t *testing.T, spec workload.Spec) map[string]string {
	t.Helper()
	prog, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Core
	got := map[string]string{}
	for _, dic := range []bool{true, false} {
		tag := fmt.Sprintf("dic=%t/", dic)
		for _, inter := range []bool{false, true} {
			if inter && !dic {
				continue // the layout mode does not reach the jump-table path
			}
			opts := core.Options{NoDataInCode: !dic, InterProc: inter}
			opts.WPA.Workers = 2
			res, err := core.Optimize(p, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, opts)
			if err != nil {
				t.Fatalf("%s %sinterproc=%t: %v", spec.Name, tag, inter, err)
			}
			keys := sha256.Sum256([]byte(strings.Join(res.Metadata.IRKeys, "\n")))
			got["ir_keys"] = hex.EncodeToString(keys[:])
			if !inter {
				got[tag+"pm_id"] = res.Metadata.Binary.BuildID
				got[tag+"pm_bin"] = binarySHA(res.Metadata.Binary)
				got[tag+"pm_objs"] = objectsSHA(res.Metadata.Objects)
				got[tag+"po_id"] = res.Optimized.Binary.BuildID
				got[tag+"po_bin"] = binarySHA(res.Optimized.Binary)
				got[tag+"po_objs"] = objectsSHA(res.Optimized.Objects)
			} else {
				got[tag+"po_interproc_id"] = res.Optimized.Binary.BuildID
				got[tag+"po_interproc_bin"] = binarySHA(res.Optimized.Binary)
				got[tag+"po_interproc_objs"] = objectsSHA(res.Optimized.Objects)
			}
		}
		var objs []*objfile.Object
		for _, m := range p.Modules {
			obj, err := codegen.Compile(m, codegen.Options{Mode: codegen.ModeAll, DataInCode: dic})
			if err != nil {
				t.Fatalf("%s %sall-sections %s: %v", spec.Name, tag, m.Name, err)
			}
			objs = append(objs, obj)
		}
		bin, _, err := linker.Link(objs, linker.Config{Entry: p.Entry, EmitAddrMap: true})
		if err != nil {
			t.Fatalf("%s %sall-sections link: %v", spec.Name, tag, err)
		}
		got[tag+"all_objs"] = objectsSHA(objs)
		got[tag+"all_id"] = bin.BuildID
		got[tag+"all_bin"] = binarySHA(bin)
	}
	return got
}

// TestBuildArtifactsGolden pins what the build layers emit for every
// catalog workload: IR cache keys, PM and PO object bytes, and per binary
// its build ID (a content hash of the entry, the segment bases, text,
// rodata and data) and the SHA-256 of its whole encoding (which adds the
// symbols, placed sections, address map, CFI, LSDA and debug the ID does
// not hash), in labels, list and all-sections modes with jump tables in
// text and in rodata, plus one service loop's candidate build IDs and
// layout SHAs. The file was written from the commit before the IR gained
// a block numbering and the decoders their slabs (the encoded-binary hashes
// from the one before the one-copy link image); it changes only when an
// emitted byte does.
// Requests are cut to 2000 (the benchmark's relink-wide size) to keep the
// profiling runs short; program shapes are the catalog's.
func TestBuildArtifactsGolden(t *testing.T) {
	got := map[string]map[string]string{}
	for _, spec := range workload.Catalog() {
		if testing.Short() && spec.NumFuncs > 2000 {
			continue
		}
		spec.Requests = 2000
		got[spec.Name] = buildArtifacts(t, spec)
	}

	// The service loop, as the benchmark's fleet-generation workload runs it.
	spec := workload.MySQL()
	spec.Requests = 2500
	prog, err := workload.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{IRCache: buildsys.NewCache(), ObjCache: buildsys.NewCache()}
	opts.WPA.Workers = 2
	loop, err := profsvc.RunGenerations(prog.Core, profsvc.DriverConfig{
		Generations: 3, Hosts: 2, Shards: 1, WorkersPerShard: 1,
		LossRate: 0.02, DupRate: 0.02, Seed: 3,
		TrainInsts: 20_000_000, LBRPeriod: 211, Opts: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens := map[string]string{"baseline_id": loop.BaselineBuildID}
	for _, g := range loop.Generations {
		gens[fmt.Sprintf("gen%d", g.Index)] = g.CandidateBuildID + ":" + g.LayoutSHA
	}
	got["mysql/generations"] = gens

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, cells := range got {
		for k, v := range cells {
			if w := want[name][k]; v != w {
				t.Errorf("%s %s: %s, pinned %s", name, k, v, w)
			}
		}
		if len(cells) != len(want[name]) {
			t.Errorf("%s: %d cells, pinned %d", name, len(cells), len(want[name]))
		}
	}
}
