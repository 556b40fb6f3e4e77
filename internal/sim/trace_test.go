package sim_test

// The lockstep block-trace check: a relink may move blocks, never change
// which blocks run or in what order.

import (
	"bytes"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	"propeller/internal/isa"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

// traced runs bin in the checking mode over its own address map.
func traced(t *testing.T, bin *objfile.Binary) (*sim.Result, error) {
	t.Helper()
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(sim.Config{TraceBlocks: bbaddrmap.NewLookup(m), DisableUarch: true})
}

// nopOutTakenJump returns a copy of bin in which the first direct jmp the
// run's LBR saw taken to anywhere but the next instruction is overwritten
// with NOPs of the same length.
func nopOutTakenJump(t *testing.T, bin *objfile.Binary) *objfile.Binary {
	t.Helper()
	p, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := p.Run(sim.Config{MaxInsts: 200_000, LBRPeriod: 97, DisableUarch: true})
	for _, s := range res.Profile.Samples {
		for _, r := range s.Records {
			off := int(r.From - bin.TextBase)
			in, size, err := isa.Decode(bin.Text, off)
			if err != nil || !in.Op.IsUncondJump() || r.To == r.From+uint64(size) {
				continue
			}
			bad := bin.Clone()
			for i := off; i < off+size; i++ {
				bad.Text[i] = byte(isa.OpNop)
			}
			return bad
		}
	}
	t.Fatal("the run took no direct jmp")
	return nil
}

// TestBlockTraceSameAcrossLayouts: the metadata (PM) binary and the
// Propeller-optimized (PO) binary of one program enter the same blocks in
// the same order on one input. The shipped PO keeps the address map of its
// hot objects only, so the check relinks it with every object's map and
// first shows the text is the shipped bytes. A PO with one executed jump
// turned into NOPs must be caught.
func TestBlockTraceSameAcrossLayouts(t *testing.T) {
	mysql := workload.MySQL()
	mysql.Requests = 1000
	for _, spec := range []workload.Spec{workload.Tiny(), mysql} {
		prog, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		po, _, err := linker.Link(res.Optimized.Objects, linker.Config{Entry: prog.Core.Entry, Order: &res.Order, EmitAddrMap: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(po.Text, res.Optimized.Binary.Text) || po.Entry != res.Optimized.Binary.Entry {
			t.Fatalf("%s: relinking with every address map moved the text", spec.Name)
		}

		pmRun, err := traced(t, res.Metadata.Binary)
		if err != nil {
			t.Fatalf("%s: PM: %v", spec.Name, err)
		}
		poRun, err := traced(t, po)
		if err != nil {
			t.Fatalf("%s: PO: %v", spec.Name, err)
		}
		if pmRun.BlockTrace == 0 || pmRun.Exit != poRun.Exit || pmRun.BlockTrace != poRun.BlockTrace {
			t.Errorf("%s: PM exit %d trace %#x, PO exit %d trace %#x", spec.Name, pmRun.Exit, pmRun.BlockTrace, poRun.Exit, poRun.BlockTrace)
		}

		badRun, err := traced(t, nopOutTakenJump(t, po))
		if err == nil && badRun.BlockTrace == poRun.BlockTrace {
			t.Errorf("%s: a PO with a taken jmp overwritten by NOPs gives the same trace %#x", spec.Name, badRun.BlockTrace)
		}
	}
}
