package sim_test

import (
	"reflect"
	"testing"

	"propeller/internal/isa"
	"propeller/internal/sim"
)

// FuzzRunMatchesReference runs arbitrary bytes as text from its first byte,
// for at most 10 000 instructions through both loops: on a 16 KB stack
// modeled plain, with a dense sample grid and with the miss profile, and
// functional plain and with the same grid; and plain and functional on a
// stack bounded at three growth chunks and a word (192 KB + 8), which a run
// grows on demand. Run must never panic; wherever the reference
// interpreter finishes without panicking (it panics on an access within 8
// bytes of 2^64, see reference_test.go), the two outcomes must be equal.
// The seeds are the texts of the differential suite's programs and fault
// binaries, and accesses that walk the stack down across its growth
// points and past its bound.
//
//	go test -run='^$' -fuzz='^FuzzRunMatchesReference$' -fuzztime=60s ./internal/sim/
func FuzzRunMatchesReference(f *testing.F) {
	for _, s := range append(programs(f), faults(f)...) {
		f.Add(s.bin.Text, uint16(10_000))
	}
	const grown = 3<<16 + 8
	limit := int64(sim.StackTop - grown)
	walk := func(op isa.Op) []byte { // from the top down in 8 KB steps until it faults
		loop := []isa.Inst{{Op: isa.OpAddI, A: 1, Imm: -8192}, {Op: op, A: 1, B: 0}, {Op: isa.OpJmpS}}
		loop[2].Imm = -int64(len(asm(loop...)))
		return append(asm(movi(1, int64(sim.StackTop))), asm(loop...)...)
	}
	f.Add(walk(isa.OpStore), uint16(10_000))
	f.Add(walk(isa.OpLoad), uint16(10_000))
	f.Add(asm(movi(isa.RegSP, limit+16), isa.Inst{Op: isa.OpPush, A: 0}, isa.Inst{Op: isa.OpPush, A: 0}, isa.Inst{Op: isa.OpPush, A: 0}, halt), uint16(10_000))
	f.Add(asm(movi(1, limit), store0(1), load0(1), movi(1, limit-8), load0(1), halt), uint16(10_000))
	vs := []variant{
		{name: "plain"},
		{name: "lbr-7+3", cfg: sim.Config{LBRPeriod: 7, LBRPhase: 3}},
		{name: "loadmisses", cfg: sim.Config{TrackLoadMisses: true}},
		{name: "functional", cfg: sim.Config{DisableUarch: true}},
		{name: "functional-lbr-7+3", cfg: sim.Config{DisableUarch: true, LBRPeriod: 7, LBRPhase: 3}},
		{name: "plain-grown", cfg: sim.Config{StackSize: grown}},
		{name: "functional-grown", cfg: sim.Config{DisableUarch: true, StackSize: grown}},
	}
	f.Fuzz(func(t *testing.T, text []byte, budget uint16) {
		if len(text) == 0 {
			return // Load refuses an entry outside text
		}
		s := load(t, "fuzz", raw(text))
		maxInsts := 1 + uint64(budget)%10_000
		for _, v := range vs {
			got := observe(t, s.run, s.bin, v, maxInsts)
			want, ok := observeReference(t, s, v, maxInsts)
			if ok && !reflect.DeepEqual(got, want) {
				t.Errorf("%s/max=%d:\n got  %v\n want %v", v.name, maxInsts, got, want)
			}
		}
	})
}

// observeReference is observe of the reference interpreter, and false if
// it panicked.
func observeReference(t *testing.T, s subject, v variant, maxInsts uint64) (o outcome, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return observe(t, s.ref, s.bin, v, maxInsts), true
}
