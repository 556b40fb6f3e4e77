package main

import (
	"testing"

	"propeller/internal/core"
	"propeller/internal/workload"
)

// A seed must change the program's code without changing what it computes.
func TestAddColdPathsKeepsOutput(t *testing.T) {
	build := func(seed uint64, edit bool) (blocks int, exit int64, buildID string) {
		prog, err := workload.Generate(workload.Tiny())
		if err != nil {
			t.Fatal(err)
		}
		if edit {
			addColdPaths(prog, seed)
		}
		for _, m := range prog.Core.Modules {
			for _, f := range m.Funcs {
				blocks += len(f.Blocks)
			}
		}
		base, err := core.BuildBaseline(prog.Core, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run, err := runPlain(base.Binary)
		if err != nil {
			t.Fatal(err)
		}
		return blocks, run.Exit, base.Binary.BuildID
	}
	blocks0, exit0, id0 := build(0, false)
	blocks1, exit1, id1 := build(1, true)
	blocks2, exit2, id2 := build(2, true)
	_, _, again := build(1, true)
	if blocks1 <= blocks0 || blocks2 <= blocks0 {
		t.Errorf("edited programs have %d and %d blocks, the catalog program %d: nothing was added", blocks1, blocks2, blocks0)
	}
	if exit1 != exit0 || exit2 != exit0 {
		t.Errorf("edited programs halt with %d and %d, the catalog program with %d", exit1, exit2, exit0)
	}
	if id1 == id0 || id2 == id0 || id1 == id2 {
		t.Errorf("build IDs %s (catalog), %s (seed 1), %s (seed 2) should all differ", id0, id1, id2)
	}
	if again != id1 {
		t.Errorf("seed 1 built %s, then %s: the same seed must give the same inputs", id1, again)
	}
}
