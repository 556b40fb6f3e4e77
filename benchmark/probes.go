package main

import (
	"bytes"
	"fmt"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/profile"
	"propeller/internal/sim"
	"propeller/internal/wpa"
)

// prober times calls into single layers, each as a child span of one
// "probe" root, and collects the numbers under their metric names.
type prober struct {
	rec  *recorder
	op   int
	root int
	m    map[string]float64
}

// run times fn as the span name and stores name+".s"; the returned delta
// carries the allocation counts for the probes that report them.
func (p *prober) run(name string, fn func() error) (allocDelta, error) {
	id := p.rec.start(p.op, p.root, name)
	d, err := measure(fn)
	p.rec.end(id)
	if err != nil {
		return d, fmt.Errorf("probe %s: %w", name, err)
	}
	p.m[name+".s"] = d.Seconds
	return d, nil
}

// probeLayers calls each layer's exported function standalone on the
// artifacts of one phase-by-phase op. The results are the op's work done
// again, one layer at a time, so their sum against a phase span is the
// share of that phase somebody has named.
func probeLayers(rec *recorder, op int, f *fixture, a *artifacts) (map[string]float64, error) {
	p := &prober{rec: rec, op: op, m: map[string]float64{}}
	p.root = rec.start(op, 0, "probe")
	defer rec.end(p.root)
	m := p.m
	mods := f.prog.Core.Modules
	dataInCode := !a.opts.NoDataInCode
	// hot names the modules the layout gave a directive: the ones Phase 4
	// compiles again and whose address maps the final link keeps.
	hot := map[string]bool{}
	for _, mod := range mods {
		for _, fn := range mod.Funcs {
			if _, ok := a.wres.Directives[fn.Name]; ok {
				hot[mod.Name] = true
				break
			}
		}
	}

	// ir: the Phase-1 codec over every module.
	encoded := make([][]byte, len(mods))
	irBytes := 0
	d, err := p.run("ir.encode", func() error {
		for i, mod := range mods {
			encoded[i] = ir.EncodeModule(mod)
			irBytes += len(encoded[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["ir.encode.mb"] = float64(irBytes) / 1e6
	m["ir.encode.allocs_k"] = d.Mallocs / 1e3
	decoded := make([]*ir.Module, len(mods))
	if d, err = p.run("ir.decode", func() (err error) {
		for i, data := range encoded {
			if decoded[i], err = ir.DecodeModule(data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["ir.decode.allocs_k"] = d.Mallocs / 1e3

	// codegen: the Phase-2 backend over every module, then the Phase-4
	// backend over the modules the layout made hot.
	if d, err = p.run("codegen.labels", func() error {
		for _, mod := range decoded {
			if _, err := codegen.Compile(mod, codegen.Options{Mode: codegen.ModeLabels, DataInCode: dataInCode}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["codegen.labels.kblocks_per_s"] = float64(f.prog.TotalBlocks) / 1e3 / d.Seconds
	m["codegen.labels.allocs_k"] = d.Mallocs / 1e3
	if _, err = p.run("codegen.list", func() error {
		for _, mod := range decoded {
			if !hot[mod.Name] {
				continue
			}
			if _, err := codegen.Compile(mod, codegen.Options{
				Mode: codegen.ModeList, Directives: a.wres.Directives, DataInCode: dataInCode,
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["codegen.list.modules"] = float64(len(hot))

	// objfile: the object codec over the Phase-2 objects.
	objData := make([][]byte, len(a.meta.Objects))
	objBytes := 0
	if _, err = p.run("objfile.encode", func() error {
		for i, o := range a.meta.Objects {
			objData[i] = objfile.EncodeObject(o)
			objBytes += len(objData[i])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["objfile.mb"] = float64(objBytes) / 1e6
	if d, err = p.run("objfile.decode", func() error {
		for _, data := range objData {
			if _, err := objfile.DecodeObject(data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	m["objfile.decode.allocs_k"] = d.Mallocs / 1e3

	// linker: the two links of the pipeline, which must reproduce the
	// op's binaries.
	entry := f.prog.Core.Entry
	var pmStats, poStats *linker.Stats
	if _, err = p.run("linker.pm", func() error {
		bin, st, err := linker.Link(a.meta.Objects, linker.Config{Entry: entry, EmitAddrMap: true})
		if err == nil && bin.BuildID != a.meta.Binary.BuildID {
			err = fmt.Errorf("relinked PM binary %s differs from the op's %s", bin.BuildID, a.meta.Binary.BuildID)
		}
		pmStats = st
		return err
	}); err != nil {
		return nil, err
	}
	m["linker.input_mb"] = float64(pmStats.InputBytes) / 1e6
	if d, err = p.run("linker.po", func() error {
		bin, st, err := linker.Link(a.po.Objects, linker.Config{
			Entry: entry, Order: &a.wres.Order, EmitAddrMap: true,
			KeepMapFor: func(obj string) bool { return hot[obj] },
		})
		if err == nil && bin.BuildID != a.po.Binary.BuildID {
			err = fmt.Errorf("relinked PO binary %s differs from the op's %s", bin.BuildID, a.po.Binary.BuildID)
		}
		poStats = st
		return err
	}); err != nil {
		return nil, err
	}
	m["linker.po.allocs_k"] = d.Mallocs / 1e3
	m["linker.po.jumps_deleted"] = float64(poStats.JumpsDeleted)
	m["linker.po.branches_shrunk"] = float64(poStats.BranchesShrunk)
	m["linker.po.text_kb"] = float64(len(a.po.Binary.Text)) / 1024

	// sim: load once, then the three ways the pipeline runs a binary —
	// materialized LBR (CollectProfile), streamed LBR (fleet hosts) and
	// plain (evaluation runs).
	var prog *sim.Program
	if d, err = p.run("sim.load", func() (err error) {
		prog, err = sim.Load(a.meta.Binary)
		return err
	}); err != nil {
		return nil, err
	}
	m["sim.load.allocs_k"] = d.Mallocs / 1e3
	var lbr *sim.Result
	if d, err = p.run("sim.lbr", func() (err error) {
		lbr, err = prog.Run(sim.Config{MaxInsts: evalInsts, LBRPeriod: trainLBRPeriod})
		return err
	}); err != nil {
		return nil, err
	}
	samples := float64(len(lbr.Profile.Samples))
	m["sim.train_minsts"] = float64(lbr.Insts) / 1e6
	m["sim.lbr.minst_per_s"] = float64(lbr.Insts) / 1e6 / d.Seconds
	m["sim.lbr.samples_k"] = samples / 1e3
	m["sim.lbr.allocs_per_sample"] = d.Mallocs / samples
	if d, err = p.run("sim.stream", func() error {
		_, err := prog.Run(sim.Config{
			MaxInsts: evalInsts, LBRPeriod: trainLBRPeriod,
			OnSample: func(profile.Sample) error { return nil },
		})
		return err
	}); err != nil {
		return nil, err
	}
	m["sim.stream.minst_per_s"] = float64(lbr.Insts) / 1e6 / d.Seconds
	if d, err = p.run("sim.plain", func() error {
		_, err := prog.Run(sim.Config{MaxInsts: evalInsts})
		return err
	}); err != nil {
		return nil, err
	}
	m["sim.plain.minst_per_s"] = float64(lbr.Insts) / 1e6 / d.Seconds

	// profile: the wire codec over the profile the analysis consumed.
	var wire []byte
	if _, err = p.run("profile.encode", func() error {
		wire = a.prof.AppendWire(nil)
		return nil
	}); err != nil {
		return nil, err
	}
	m["profile.wire_mb"] = float64(len(wire)) / 1e6
	if d, err = p.run("profile.decode", func() error {
		_, err := profile.Read(bytes.NewReader(wire))
		return err
	}); err != nil {
		return nil, err
	}
	m["profile.decode.msamples_per_s"] = float64(len(a.prof.Samples)) / 1e6 / d.Seconds
	m["profile.decode.allocs_k"] = d.Mallocs / 1e3

	// bbaddrmap: decode the PM binary's map and build its address index.
	var amap *bbaddrmap.Map
	if _, err = p.run("bbaddrmap.decode", func() (err error) {
		amap, err = bbaddrmap.Decode(a.meta.Binary.BBAddrMap)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err = p.run("bbaddrmap.lookup_build", func() error {
		bbaddrmap.NewLookup(amap)
		return nil
	}); err != nil {
		return nil, err
	}

	// wpa: sample aggregation, then the layout path this workload takes
	// beside the one it does not (intra-function layout is cheap enough
	// to probe everywhere; the global Ext-TSP and the stream reader run
	// where the pipeline runs them).
	cfg := wpa.Config{Workers: wpaWorkers, BuildID: a.meta.Binary.BuildID}
	var agg *wpa.Aggregate
	if d, err = p.run("wpa.aggregate", func() (err error) {
		agg, err = wpa.BuildAggregate(amap, a.prof, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	m["wpa.aggregate.mrecords_per_s"] = float64(a.wres.Stats.Records) / 1e6 / d.Seconds
	m["wpa.aggregate.allocs_k"] = d.Mallocs / 1e3
	var intra *wpa.Result
	if _, err = p.run("wpa.intra", func() (err error) {
		intra, err = wpa.AnalyzeAggregate(amap, agg, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	m["wpa.intra.hot_funcs"] = float64(intra.Stats.HotFuncs)
	if f.def.InterProc {
		cfg.InterProc = true
		var inter *wpa.Result
		if d, err = p.run("wpa.interproc", func() (err error) {
			inter, err = wpa.AnalyzeAggregate(amap, agg, cfg)
			return err
		}); err != nil {
			return nil, err
		}
		m["wpa.interproc.alloc_mb"] = d.Bytes / 1e6
		m["wpa.interproc.shards"] = float64(inter.Stats.LayoutShards)
	}
	if f.def.Fleet {
		if _, err = p.run("wpa.stream", func() error {
			_, err := wpa.AnalyzeStream(amap, bytes.NewReader(wire), cfg)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return m, nil
}
