// Exit checksums compared outside core.Measure.

//archtest:at internal/eval/planted.go

package eval

import "propeller/internal/sim"

func same(run, ref *sim.Result) bool {
	return run.Exit == ref.Exit // want "checksum verdict"
}

func differs(run *sim.Result, wantExit int64) bool {
	return int64(run.Exit) != wantExit // want "checksum verdict"
}

func selfCheckCrashed(run *sim.Result) bool {
	return run.Exit == -99
}
