// Package workload synthesizes executable programs whose structure matches
// the benchmark characteristics of the paper's Table 2: text size, function
// count, basic-block count, and the fraction of cold objects. The paper's
// binaries (Clang, MySQL, Spanner, Search, Bigtable, Superroot, SPEC2017)
// are proprietary or impractical to rebuild inside this module, so each is
// substituted by a seeded generator scaled ~1:100 that preserves the
// properties the evaluation depends on:
//
//   - a small hot set inside a much larger cold text (iTLB/icache pressure);
//   - biased branches and loops, so layout quality matters;
//   - hot/cold code mixed within functions (splitting opportunities);
//   - jump tables (some embedded in text, defeating disassembly);
//   - exception handling with landing pads;
//   - warehouse-scale applications additionally carry a FIPS-style startup
//     integrity self-check (§5.8), which binary rewriting breaks;
//   - deterministic results: every layout of the same program halts with
//     the same checksum, so optimizer correctness is machine-checkable.
package workload

import (
	"fmt"
	"math/rand"

	"propeller/internal/core"
	"propeller/internal/ir"
	"propeller/internal/isa"
)

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name string
	Seed int64

	NumFuncs       int
	FuncsPerModule int     // default 8
	AvgBlocks      int     // mean basic blocks per function
	ColdObjFrac    float64 // fraction of modules with no hot code (Table 2 "%Cold")
	HotFuncs       int     // functions on the request path
	Tiers          int     // call-graph depth of the hot set (default 3)

	SwitchFrac  float64 // fraction of functions containing a switch
	DataInCode  bool    // embed switch tables in text
	EHFrac      float64 // fraction of hot functions with a landing pad
	LeafHelpers int     // shared inlinable helpers (ThinLTO food)

	Requests  int64 // driver loop iterations (work per run)
	Integrity bool  // WSC startup self-check
	HugePages bool  // link-time preference recorded on the program
}

func (s Spec) funcsPerModule() int {
	if s.FuncsPerModule <= 0 {
		return 8
	}
	return s.FuncsPerModule
}

func (s Spec) tiers() int {
	if s.Tiers <= 0 {
		return 3
	}
	return s.Tiers
}

// Registers used by generated code. r0 carries the argument/result chain;
// r4..r7 are function-local temps (saved/restored); r10/r11 are scratch for
// leaf helpers; r12/r13 stay reserved for codegen.
const (
	rVal   = 0
	rT0    = 4
	rT1    = 5
	rT2    = 6
	rT3    = 7
	rLeafA = 10
	rLeafB = 11
)

// Program is a generated benchmark plus its ground-truth metadata.
type Program struct {
	Core *core.Program
	Spec Spec

	HotFuncNames []string
	ColdModules  int
	TotalModules int
	TotalBlocks  int
}

// Generate builds the benchmark program. Each module is verified, then
// returned as an ir.CloneModule copy: slab-laid, because the program is
// long-lived and the collector marks every pointer of every resident object
// on every cycle. Its slices are capacity-clamped (an edit such as NewBlock
// or Emit reallocates the one slice it grows), and one surviving *Block
// pins its module's slabs.
func Generate(spec Spec) (*Program, error) {
	if spec.NumFuncs < 4 {
		return nil, fmt.Errorf("workload: %s: need at least 4 functions", spec.Name)
	}
	g := &gen{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
	return g.build()
}

type gen struct {
	spec Spec
	rng  *rand.Rand

	modules []*ir.Module
	program *Program

	hotNames  [][]string // per tier
	coldNames []string
	leafNames []string

	totalBlocks int
}

func (g *gen) build() (*Program, error) {
	spec := g.spec
	nModules := (spec.NumFuncs + spec.funcsPerModule() - 1) / spec.funcsPerModule()
	if nModules < 2 {
		nModules = 2
	}
	hotModules := int(float64(nModules)*(1-spec.ColdObjFrac) + 0.5)
	if hotModules < 1 {
		hotModules = 1
	}
	hotFuncs := spec.HotFuncs
	if hotFuncs <= 0 {
		hotFuncs = spec.NumFuncs / 12
	}
	if hotFuncs < spec.tiers() {
		hotFuncs = spec.tiers()
	}
	if hotFuncs > spec.NumFuncs-1 {
		hotFuncs = spec.NumFuncs - 1
	}

	for i := 0; i < nModules; i++ {
		g.modules = append(g.modules, ir.NewModule(fmt.Sprintf("%s_m%03d", spec.Name, i)))
	}

	// Partition hot functions into call tiers.
	g.hotNames = make([][]string, g.spec.tiers())
	for i := 0; i < hotFuncs; i++ {
		t := i * g.spec.tiers() / hotFuncs
		g.hotNames[t] = append(g.hotNames[t], fmt.Sprintf("hot_%s_%04d", spec.Name, i))
	}
	// Leaf helpers.
	nLeaf := spec.LeafHelpers
	if nLeaf <= 0 {
		nLeaf = 4
	}
	for i := 0; i < nLeaf; i++ {
		g.leafNames = append(g.leafNames, fmt.Sprintf("leaf_%s_%02d", spec.Name, i))
	}
	// Cold functions fill the remainder.
	nCold := spec.NumFuncs - hotFuncs - nLeaf - 1 // -1 for main
	for i := 0; i < nCold; i++ {
		g.coldNames = append(g.coldNames, fmt.Sprintf("cold_%s_%05d", spec.Name, i))
	}

	// Emit hot functions into the hot modules round-robin; cold functions
	// everywhere else (cold modules plus padding of hot modules).
	mi := 0
	nextHotModule := func() *ir.Module {
		m := g.modules[mi%hotModules]
		mi++
		return m
	}
	if spec.EHFrac > 0 {
		g.emitThrower(g.modules[0])
	}
	for t := len(g.hotNames) - 1; t >= 0; t-- {
		for _, name := range g.hotNames[t] {
			g.emitHotFunc(nextHotModule(), name, t)
		}
	}
	for i, name := range g.leafNames {
		g.emitLeaf(g.modules[i%hotModules], name)
	}
	for i, name := range g.coldNames {
		var m *ir.Module
		if nModules > hotModules {
			m = g.modules[hotModules+i%(nModules-hotModules)]
		} else {
			m = g.modules[i%nModules]
		}
		g.emitColdFunc(m, name)
	}
	g.emitMain(g.modules[0])

	// Returned slab-laid (see Generate). The clone replaces the builder's
	// copy of a module, several heap objects per block, at once, so a
	// collection during the rest of the copy does not mark it.
	for i, m := range g.modules {
		if err := ir.Verify(m); err != nil {
			return nil, fmt.Errorf("workload: %s: %w", spec.Name, err)
		}
		g.modules[i] = ir.CloneModule(m)
	}
	coldModules := 0
	for i := hotModules; i < nModules; i++ {
		coldModules++
	}
	return &Program{
		Core: &core.Program{
			Name:    spec.Name,
			Modules: g.modules,
			Entry:   "main",
		},
		Spec:         spec,
		HotFuncNames: flatten(g.hotNames),
		ColdModules:  coldModules,
		TotalModules: nModules,
		TotalBlocks:  g.totalBlocks,
	}, nil
}

func flatten(tiers [][]string) []string {
	var out []string
	for _, t := range tiers {
		out = append(out, t...)
	}
	return out
}

// emitMain builds the request driver: optional integrity check, then a
// loop dispatching Requests requests across the tier-0 hot functions,
// folding results into a checksum that main halts with.
func (g *gen) emitMain(m *ir.Module) {
	f := m.NewFunc("main", 0)
	entry := f.Entry()
	loop := f.NewBlock()
	body := f.NewBlock()
	done := f.NewBlock()

	if g.spec.Integrity {
		checked := g.hotNames[0][0]
		m.AddGlobal(&ir.Global{Name: "fips_snapshot_" + g.spec.Name, Size: 16, CodeSnapshotOf: checked})
		g.emitIntegrityCheck(f, entry, loop, checked)
	} else {
		entry.Jump(loop)
	}

	// r8 = request index, r9 = checksum, initialized before everything
	// else. Callees preserve r8/r9 by the generator's convention (they
	// save/restore r4..r7 and use only r0..r7, r10, r11).
	entry.Ins = append([]ir.Inst{
		{Op: isa.OpMovI, A: 8, Imm: 0},
		{Op: isa.OpMovI, A: 9, Imm: 0},
	}, entry.Ins...)

	loop.Emit(ir.Inst{Op: isa.OpCmpI, A: 8, Imm: g.spec.Requests})
	loop.Branch(isa.CondGE, done, body)

	// Dispatch: r0 = req; select one tier-0 function per request through
	// a function-pointer table (how warehouse servers dispatch request
	// handlers) and fold the result into the checksum.
	tier0 := g.hotNames[0]
	body.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: 8})
	if len(tier0) == 1 {
		body.Emit(ir.Inst{Op: isa.OpCall, Sym: tier0[0]})
	} else {
		table := "dispatch_" + g.spec.Name
		m.AddGlobal(&ir.Global{
			Name: table, Size: int64(8 * len(tier0)), ReadOnly: true, FuncPtrs: tier0,
		})
		body.Emit(ir.Inst{Op: isa.OpMovRR, A: 2, B: 8})
		body.Emit(ir.Inst{Op: isa.OpMovI, A: 3, Imm: int64(len(tier0))})
		body.Emit(ir.Inst{Op: isa.OpMod, A: 2, B: 3})
		body.Emit(ir.Inst{Op: isa.OpMovI, A: 1, Imm: 3})
		body.Emit(ir.Inst{Op: isa.OpShl, A: 2, B: 1})
		body.Emit(ir.Inst{Op: isa.OpMovI64, A: 3, Sym: table})
		body.Emit(ir.Inst{Op: isa.OpAdd, A: 3, B: 2})
		body.Emit(ir.Inst{Op: isa.OpLoad, A: 3, B: 3})
		body.Emit(ir.Inst{Op: isa.OpCallR, A: 3})
	}
	body.Emit(ir.Inst{Op: isa.OpAdd, A: 9, B: rVal})
	body.Emit(ir.Inst{Op: isa.OpAddI, A: 8, Imm: 1})
	body.Jump(loop)

	done.Emit(ir.Inst{Op: isa.OpMovRR, A: rVal, B: 9})
	done.Halt()
	g.totalBlocks += len(f.Blocks)
}

// emitIntegrityCheck appends the FIPS-style startup self-check to main's
// entry: re-hash the checked function's running code and compare with the
// baked digest; on mismatch halt with -99, otherwise continue to cont.
func (g *gen) emitIntegrityCheck(f *ir.Func, entry, cont *ir.Block, checked string) {
	hloop := f.NewBlock()
	hbody := f.NewBlock()
	verdict := f.NewBlock()
	bad := f.NewBlock()

	const (
		rHashExp = 1
		rSize    = 2
		rBase    = 3
		rHash    = rT0
		rOff     = rT1
		rTmp     = rT2
		rWord    = rT3
		rPrime   = rLeafA
	)
	entry.Emit(ir.Inst{Op: isa.OpMovI64, A: rTmp, Sym: "fips_snapshot_" + g.spec.Name})
	entry.Emit(ir.Inst{Op: isa.OpLoad, A: rTmp, B: rHashExp, Imm: 0})
	entry.Emit(ir.Inst{Op: isa.OpLoad, A: rTmp, B: rSize, Imm: 8})
	entry.Emit(ir.Inst{Op: isa.OpMovI64, A: rBase, Sym: checked})
	entry.Emit(ir.Inst{Op: isa.OpMovI64, A: rHash, Imm: fnvOffsetBasis})
	entry.Emit(ir.Inst{Op: isa.OpMovI64, A: rPrime, Imm: fnvPrime})
	entry.Emit(ir.Inst{Op: isa.OpMovI, A: rOff, Imm: 0})
	entry.Jump(hloop)

	hloop.Emit(ir.Inst{Op: isa.OpMovRR, A: rTmp, B: rOff})
	hloop.Emit(ir.Inst{Op: isa.OpAddI, A: rTmp, Imm: 8})
	hloop.Emit(ir.Inst{Op: isa.OpCmp, A: rTmp, B: rSize})
	hloop.Branch(isa.CondGT, verdict, hbody)

	hbody.Emit(ir.Inst{Op: isa.OpMovRR, A: rTmp, B: rBase})
	hbody.Emit(ir.Inst{Op: isa.OpAdd, A: rTmp, B: rOff})
	hbody.Emit(ir.Inst{Op: isa.OpLoad, A: rTmp, B: rWord, Imm: 0})
	hbody.Emit(ir.Inst{Op: isa.OpXor, A: rHash, B: rWord})
	hbody.Emit(ir.Inst{Op: isa.OpMul, A: rHash, B: rPrime})
	hbody.Emit(ir.Inst{Op: isa.OpAddI, A: rOff, Imm: 8})
	hbody.Jump(hloop)

	verdict.Emit(ir.Inst{Op: isa.OpCmp, A: rHash, B: rHashExp})
	verdict.Branch(isa.CondEQ, cont, bad)

	bad.Emit(ir.Inst{Op: isa.OpMovI, A: rVal, Imm: -99})
	bad.Halt()
}

const (
	fnvOffsetBasis = int64(-3750763034362895579)
	fnvPrime       = int64(1099511628211)
)
