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
	"propeller/internal/profile"
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

// takenBranches runs bin with LBR sampling for 200 000 instructions and
// returns the taken branches its samples recorded, in order.
func takenBranches(t *testing.T, bin *objfile.Binary) []profile.Branch {
	t.Helper()
	p, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := p.Run(sim.Config{MaxInsts: 200_000, LBRPeriod: 97, DisableUarch: true})
	var out []profile.Branch
	for _, s := range res.Profile.Samples {
		out = append(out, s.Records...)
	}
	return out
}

// nopOutTakenJump returns a copy of bin in which the first direct jmp the
// run's LBR saw taken to anywhere but the next instruction is overwritten
// with NOPs of the same length.
func nopOutTakenJump(t *testing.T, bin *objfile.Binary) *objfile.Binary {
	t.Helper()
	for _, r := range takenBranches(t, bin) {
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
	t.Fatal("the run took no direct jmp")
	return nil
}

// shrinkFarBranch returns a copy of bin in which the first rel32 jmp or jcc
// the run's LBR saw taken, to a target a rel8 displacement cannot reach, is
// rewritten in its short form with the displacement truncated to 8 bits,
// the freed bytes filled with NOPs so that nothing after it moves: the
// relaxation a linker must never perform.
func shrinkFarBranch(t *testing.T, bin *objfile.Binary) *objfile.Binary {
	t.Helper()
	for _, r := range takenBranches(t, bin) {
		off := int(r.From - bin.TextBase)
		in, size, err := isa.Decode(bin.Text, off)
		if err != nil || !(in.Op.IsUncondJump() || in.Op.IsCondBranch()) || in.Op.IsShortBranch() {
			continue
		}
		disp := int64(r.To) - int64(r.From) - 2 // from the end of the short form
		if isa.FitsRel8(disp) {
			continue
		}
		bad := bin.Clone()
		short := isa.Encode(nil, isa.Inst{Op: in.Op.ShortForm(), Imm: int64(int8(disp))})
		copy(bad.Text[off:], short)
		for i := off + len(short); i < off+size; i++ {
			bad.Text[i] = byte(isa.OpNop)
		}
		return bad
	}
	t.Fatal("the run took no rel32 branch beyond rel8 range")
	return nil
}

// swapAdjacentBlocks returns a copy of bin in which two blocks of one
// function, adjacent in its text, of equal size and different bytes, and
// both executed, have exchanged their bytes. The pair is chosen from the
// address map kept (whose functions are the hot ones, and whose block
// addresses bin's text shares); a block counts as executed when an LBR
// record of a sampled run lands at its start or leaves from inside it.
func swapAdjacentBlocks(t *testing.T, bin *objfile.Binary, kept []byte) *objfile.Binary {
	t.Helper()
	m, err := bbaddrmap.Decode(kept)
	if err != nil {
		t.Fatal(err)
	}
	l := bbaddrmap.NewLookup(m)
	ran := map[int32]bool{}
	for _, r := range takenBranches(t, bin) {
		ran[l.BlockStarting(r.To)] = true
		ran[l.BlockAt(r.From)] = true
	}
	blocks := l.Blocks()
	for i := 1; i < len(blocks); i++ {
		a, b := blocks[i-1], blocks[i]
		if a.Fn != b.Fn || a.End != b.Start || a.End-a.Start != b.End-b.Start || !ran[int32(i-1)] || !ran[int32(i)] {
			continue
		}
		lo, mid, hi := a.Start-bin.TextBase, b.Start-bin.TextBase, b.End-bin.TextBase
		if bytes.Equal(bin.Text[lo:mid], bin.Text[mid:hi]) {
			continue
		}
		bad := bin.Clone()
		copy(bad.Text[lo:], bin.Text[mid:hi])
		copy(bad.Text[mid:], bin.Text[lo:mid])
		return bad
	}
	t.Fatal("no two adjacent executed blocks of equal size")
	return nil
}

// TestBlockTraceSameAcrossLayouts: the metadata (PM) binary and the
// Propeller-optimized (PO) binary of one program enter the same blocks in
// the same order on one input, whether the PO was laid out function by
// function or by the global inter-procedural Ext-TSP run (§4.7), which
// interleaves the hot blocks of different functions. The shipped PO keeps
// the address map of its hot objects only, so the check relinks it with
// every object's map and first shows the text is the shipped bytes. Three
// negative controls must be caught: a PO with one executed jump turned
// into NOPs, a PO with two adjacent executed blocks of a hot function
// swapped, and a PO with one taken out-of-range branch shrunk to its short
// form.
func TestBlockTraceSameAcrossLayouts(t *testing.T) {
	mysql := workload.MySQL()
	mysql.Requests = 1000
	for _, tc := range []struct {
		spec workload.Spec
		opts core.Options
	}{
		{workload.Tiny(), core.Options{}},
		{mysql, core.Options{}},
		{mysql, core.Options{InterProc: true}},
	} {
		name := tc.spec.Name
		if tc.opts.InterProc {
			name += " (inter-procedural)"
		}
		prog, err := workload.Generate(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Optimize(prog.Core, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.opts.InterProc && res.WPAStats.LayoutShards == 0 {
			t.Fatalf("%s: no global layout ran", name)
		}
		po, _, err := linker.Link(res.Optimized.Objects, linker.Config{Entry: prog.Core.Entry, Order: &res.Order, EmitAddrMap: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(po.Text, res.Optimized.Binary.Text) || po.Entry != res.Optimized.Binary.Entry {
			t.Fatalf("%s: relinking with every address map moved the text", name)
		}

		pmRun, err := traced(t, res.Metadata.Binary)
		if err != nil {
			t.Fatalf("%s: PM: %v", name, err)
		}
		poRun, err := traced(t, po)
		if err != nil {
			t.Fatalf("%s: PO: %v", name, err)
		}
		if pmRun.BlockTrace == 0 || pmRun.Exit != poRun.Exit || pmRun.BlockTrace != poRun.BlockTrace {
			t.Errorf("%s: PM exit %d trace %#x, PO exit %d trace %#x", name, pmRun.Exit, pmRun.BlockTrace, poRun.Exit, poRun.BlockTrace)
		}

		badRun, err := traced(t, nopOutTakenJump(t, po))
		if err == nil && badRun.BlockTrace == poRun.BlockTrace {
			t.Errorf("%s: a PO with a taken jmp overwritten by NOPs gives the same trace %#x", name, badRun.BlockTrace)
		}
		swapRun, err := traced(t, swapAdjacentBlocks(t, po, res.Optimized.Binary.BBAddrMap))
		if err == nil && swapRun.BlockTrace == poRun.BlockTrace {
			t.Errorf("%s: a PO with two adjacent blocks swapped gives the same trace %#x", name, swapRun.BlockTrace)
		}
		shrunkRun, err := traced(t, shrinkFarBranch(t, po))
		if err == nil && shrunkRun.BlockTrace == poRun.BlockTrace {
			t.Errorf("%s: a PO with an out-of-range branch shrunk to rel8 gives the same trace %#x", name, shrunkRun.BlockTrace)
		}
	}
}
