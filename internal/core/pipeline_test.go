package core_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/isa"
	"propeller/internal/sim"
	"propeller/internal/workload"
)

// divideAfterLoop sums 1..n in a loop — thousands of LBR samples at a short
// period — and then divides by zero.
func divideAfterLoop(n int64) *core.Program {
	m := ir.NewModule("div0")
	f := m.NewFunc("main", 0)
	entry, loop, done := f.Entry(), f.NewBlock(), f.NewBlock()
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 0, Imm: 0})
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: 1, Imm: 1})
	entry.Jump(loop)
	loop.Emit(ir.Inst{Op: isa.OpAdd, A: 0, B: 1})
	loop.Emit(ir.Inst{Op: isa.OpAddI, A: 1, Imm: 1})
	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: 1, Imm: n})
	loop.Branch(isa.CondLE, loop, done)
	done.Emit(ir.Inst{Op: isa.OpMovI, A: 2, Imm: 0})
	done.Emit(ir.Inst{Op: isa.OpDiv, A: 0, B: 2})
	done.Halt()
	return &core.Program{Name: "div0", Modules: []*ir.Module{m}}
}

// TestFailedProfilingRunStopsTheAnalysis: a training run that faults after
// the analysis has already been handed batches of its samples — the budget
// runs out, the program divides by zero — fails Optimize with the fault
// itself, and the aggregation workers that were folding beside it are gone
// when Optimize returns.
func TestFailedProfilingRunStopsTheAnalysis(t *testing.T) {
	tiny, err := workload.Generate(workload.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		p     *core.Program
		train core.RunSpec
		fault string
	}{
		{"budget", tiny.Core, core.RunSpec{MaxInsts: 500_000, LBRPeriod: 97}, "budget of 500000 exhausted"},
		{"division", divideAfterLoop(200_000), core.RunSpec{LBRPeriod: 97}, "division by zero"},
	} {
		for _, workers := range []int{0, 1, 2, 8} {
			var opts core.Options
			opts.WPA.Workers = workers
			before := runtime.NumGoroutine()
			_, err := core.Optimize(tc.p, tc.train, opts)
			var fault *sim.RunError
			if err == nil || !strings.HasPrefix(err.Error(), "core: profiling run failed: ") || !errors.As(err, &fault) || !strings.Contains(fault.Msg, tc.fault) {
				t.Errorf("%s, %d workers: Optimize returned %v; want the profiling run's %q fault", tc.name, workers, err, tc.fault)
			}
			if fault != nil && fault.Inst < 4096*97 {
				t.Errorf("%s: the run faulted after %d instructions, before the analysis had been handed a batch", tc.name, fault.Inst)
			}
			// A worker that has signalled it is done is still counted until
			// it has finished exiting.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s, %d workers: %d goroutines after the failed Optimize, %d before it", tc.name, workers, runtime.NumGoroutine(), before)
				}
			}
		}
	}
}
