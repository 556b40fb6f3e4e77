package core

import (
	"errors"
	"testing"

	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/sim"
)

// TestMeasure holds the one checksum verdict to its contract: no check
// without a reference, none raised on an equal exit, a *ChecksumError
// carrying both exits (and the run) on a different one, and a fault passed
// through as the simulator's *sim.RunError.
func TestMeasure(t *testing.T) {
	// main halts with its first argument plus one, so two runs of the one
	// binary under different Args exit differently.
	m := ir.NewModule("echo")
	entry := m.NewFunc("main", 0).Entry()
	entry.Emit(ir.Inst{Op: isa.OpAddI, A: isa.RegArg0, Imm: 1})
	entry.Halt()
	b, err := BuildBaseline(&Program{Name: "echo", Modules: []*ir.Module{m}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Measure(b.Binary, sim.Config{Args: [4]int64{41}}, nil)
	if err != nil || ref.Exit != 42 {
		t.Fatalf("reference run: exit %v, err %v; want 42, nil", ref, err)
	}

	for _, c := range []struct {
		name     string
		cfg      sim.Config
		ref      *sim.Result
		exit     int64 // of the returned run, when one ran to its end
		mismatch bool
		fault    bool
	}{
		{name: "nil ref", cfg: sim.Config{Args: [4]int64{7}}, exit: 8},
		{name: "equal exit", cfg: sim.Config{Args: [4]int64{41}}, ref: ref, exit: 42},
		{name: "mismatch", cfg: sim.Config{Args: [4]int64{1}}, ref: ref, exit: 2, mismatch: true},
		{name: "fault", cfg: sim.Config{MaxInsts: 1}, ref: ref, fault: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			run, err := Measure(b.Binary, c.cfg, c.ref)
			if run == nil {
				t.Fatalf("no run returned (err %v)", err)
			}
			var bad *ChecksumError
			var re *sim.RunError
			switch {
			case c.fault:
				if !errors.As(err, &re) || errors.As(err, &bad) {
					t.Fatalf("err = %v, want a *sim.RunError", err)
				}
				return
			case c.mismatch:
				if !errors.As(err, &bad) {
					t.Fatalf("err = %v, want a *ChecksumError", err)
				}
				if bad.Got != c.exit || bad.Want != ref.Exit {
					t.Errorf("ChecksumError{Got: %d, Want: %d}, want {%d, %d}", bad.Got, bad.Want, c.exit, ref.Exit)
				}
			case err != nil:
				t.Fatalf("err = %v, want nil", err)
			}
			if run.Exit != c.exit {
				t.Errorf("exit %d, want %d", run.Exit, c.exit)
			}
		})
	}
}
