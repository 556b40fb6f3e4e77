package core

import (
	"fmt"

	"propeller/internal/objfile"
	"propeller/internal/sim"
)

// Budget sizes the simulated runs of one evaluation: the profiling run's
// instruction budget, each measurement run's, and the LBR sample period.
// A zero field means "the caller's default".
type Budget struct {
	TrainInsts uint64
	EvalInsts  uint64
	LBRPeriod  uint64
}

// Or returns b with every zero field taken from def.
func (b Budget) Or(def Budget) Budget {
	if b.TrainInsts == 0 {
		b.TrainInsts = def.TrainInsts
	}
	if b.EvalInsts == 0 {
		b.EvalInsts = def.EvalInsts
	}
	if b.LBRPeriod == 0 {
		b.LBRPeriod = def.LBRPeriod
	}
	return b
}

// ChecksumError reports a measured binary that ran to its end but did not
// reproduce the reference run's exit checksum: it is not the same program
// as the binary it was meant to replace (§5.8).
type ChecksumError struct {
	Got, Want int64
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("wrong checksum %d (want %d)", e.Got, e.Want)
}

// Measure loads bin and runs it under cfg: the one measured run of every
// candidate binary and the one place its checksum is judged. With a
// non-nil ref the run must exit as ref did; a run that does not comes back
// together with a *ChecksumError. A nil ref checks nothing: the reference
// run itself, or a cheap-fidelity probe cut short by its own budget. A run
// that faults comes back with the simulator's *sim.RunError unchanged.
func Measure(bin *objfile.Binary, cfg sim.Config, ref *sim.Result) (*sim.Result, error) {
	prog, err := sim.Load(bin)
	if err != nil {
		return nil, err
	}
	res, err := prog.Run(cfg)
	if err != nil || ref == nil {
		return res, err
	}
	if res.Exit != ref.Exit {
		return res, &ChecksumError{Got: res.Exit, Want: ref.Exit}
	}
	return res, nil
}
