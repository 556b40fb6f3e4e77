// MiniC end-to-end: compile a source program with the language front end
// (internal/lang), then run the full Propeller pipeline on it — the same
// journey a C++ service takes through Clang + Propeller in the paper.
//
//	go run ./examples/minic
package main

import (
	"fmt"
	"log"

	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/lang"
	"propeller/internal/opt"
	"propeller/internal/sim"
)

const src = `
// A toy request processor: parse -> dispatch -> handle, with rare error
// paths (the cold code Propeller splits away).

var processed = 0;
var errors = 0;

func parse(req) {
  if ((req & 1023) == 1023) { throw; }   // rare malformed request
  return (req * 2654435761) & 65535;
}

func light(v)  { return v + 3; }
func medium(v) {
  var i; var acc = v;
  for (i = 0; i < 8; i = i + 1) { acc = acc + (acc >> 3) + i; }
  return acc;
}
func heavy(v) {
  var i; var acc = v;
  for (i = 0; i < 24; i = i + 1) {
    if ((acc & 7) == 0) { acc = acc + medium(i); }
    else { acc = acc + 1; }
  }
  return acc;
}

func handle(req) {
  var v;
  try { v = parse(req); }
  catch {
    errors = errors + 1;
    return 0 - 1;
  }
  switch (v & 3) {
    case 0: v = light(v);
    case 1: v = medium(v);
    case 2: v = heavy(v);
    default: v = v + 7;
  }
  processed = processed + 1;
  return v;
}

func main() {
  var req; var checksum = 0;
  for (req = 0; req < 30000; req = req + 1) {
    checksum = checksum + handle(req);
  }
  return checksum + processed + errors;
}
`

func main() {
	module, err := lang.Compile(src, "reqproc")
	if err != nil {
		log.Fatal(err)
	}
	blocksBefore := countBlocks(module)
	st, err := opt.Optimize(module)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("front end: %d funcs, %d blocks; middle end folded %d insts, removed %d blocks -> %d blocks\n",
		len(module.Funcs), blocksBefore, st.Folded, st.BlocksGone, countBlocks(module))

	p := &core.Program{Name: "reqproc", Modules: []*ir.Module{module}}
	base, err := core.BuildBaseline(p, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	prop, err := core.Optimize(p, core.RunSpec{MaxInsts: 300_000_000, LBRPeriod: 211}, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	run := func(label string, b *core.BuildResult, ref *sim.Result) *sim.Result {
		res, err := core.Measure(b.Binary, sim.Config{MaxInsts: 300_000_000}, ref)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		fmt.Printf("%-10s exit=%d cycles=%d taken=%d l1i=%d\n",
			label, res.Exit, res.Cycles, res.Counters.TakenBranch, res.Counters.L1IMiss)
		return res
	}
	b := run("baseline", base, nil)
	o := run("propeller", prop.Optimized, b)
	fmt.Printf("\nhot functions: %v\n", prop.SortedHotFunctions())
	fmt.Printf("improvement: %+.2f%% cycles, %+.2f%% taken branches\n",
		100*(1-float64(o.Cycles)/float64(b.Cycles)),
		100*(1-float64(o.Counters.TakenBranch)/float64(b.Counters.TakenBranch)))
}

func countBlocks(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += len(f.Blocks)
	}
	return n
}
