// Package sim executes linked WSA binaries and models the
// microarchitectural events the paper's evaluation measures: L1i/L2 code
// misses, iTLB/STLB misses, branch resteers (baclears), taken branches,
// DSB (decoded uop cache) misses, and a cycle count. It also implements
// the LBR-based hardware profiler of §3.3: a 32-deep last-branch-record
// ring sampled periodically, standing in for `perf record -b`.
package sim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"propeller/internal/bbaddrmap"
	"propeller/internal/heatmap"
	"propeller/internal/isa"
	"propeller/internal/objfile"
	"propeller/internal/profile"
)

// Stack geometry. The stack lives outside all binary segments and grows
// down from StackTop. Its size (DefaultStackSize unless Config.StackSize
// says otherwise) is a bound: a run starts with the top stackChunk bytes
// and doubles them toward the bound when an access first reaches below, so
// a run pays for the stack it uses, not for the bound.
const (
	StackTop         = uint64(0x7F00_0000)
	DefaultStackSize = 1 << 20
	stackChunk       = 1 << 16
)

// Config controls one simulation run.
type Config struct {
	// MaxInsts bounds execution (0 means 500M).
	MaxInsts uint64

	// LBRPeriod, when non-zero, samples the LBR ring every N retired
	// instructions into the produced profile.
	LBRPeriod uint64

	// LBRPhase offsets the sampling grid: a sample is taken whenever
	// (retired + LBRPhase) is a multiple of LBRPeriod. Fleet collection
	// gives every simulated host a distinct phase, so the hosts observe
	// different slices of the same execution the way independently-timed
	// production machines would.
	LBRPhase uint64

	// OnSample, when non-nil (and LBRPeriod > 0), streams each LBR sample
	// to the callback as it is taken instead of materializing
	// Result.Profile — the collection pipeline overlaps ingestion with the
	// still-running simulation this way. The sample's record slice is
	// reused between calls and is only valid during the callback. A
	// non-nil error aborts the run and is returned from Run unchanged.
	OnSample func(profile.Sample) error

	// LBRGrids and OnGridSample, when OnGridSample is non-nil (and
	// LBRPeriod > 0), sample LBRGrids grids (at least one) in one run, in
	// place of OnSample and Result.Profile: grid h samples wherever
	// (retired + LBRPhase + h) is a multiple of LBRPeriod, so each grid
	// sees what a run with LBRPhase+h alone would. Fleet collection feeds
	// every simulated host from one execution this way, since only the
	// sampling phase tells the hosts apart. Where grids share a sampling
	// point they get the same snapshot, in ascending grid order. The
	// records are reused between calls, are only valid during the
	// callback and must not be written; a non-nil error aborts the run
	// and is returned from Run unchanged. LBRGrids above 1 without
	// OnGridSample is an error.
	LBRGrids     int
	OnGridSample func(grid int, s profile.Sample) error

	// OnBatch, when non-nil (with LBRPeriod > 0 and no OnSample), is handed
	// Result.Profile's samples while the run is still taking them: each
	// call passes the next run of Profile.Samples, in order and without a
	// gap, once neither those samples nor their records will be written
	// again — every time a chunk of sample headers or a block of the record
	// arena fills, and once more for the tail before Run returns, faulted
	// or not. The batch is part of a header chunk the run never writes
	// again, holding the very record slices of the profile's samples, so
	// the callee may keep it and read it from another goroutine, and must
	// not write it.
	OnBatch func([]profile.Sample)

	// Heatmap, when non-nil, records instruction fetches.
	Heatmap *heatmap.Recorder

	// StackSize overrides the default 1MB bound on the stack. The run
	// grows its stack on demand up to it; a push below it is a stack
	// overflow and any other access there an unmapped one.
	StackSize uint64

	// Args seed the argument registers r0..r3 at entry.
	Args [4]int64

	// DisableUarch skips the cache/TLB/predictor model: a fast functional
	// run whose Cycles equal Insts and whose Counters are zero. PGO
	// training executions and the LBR profiling runs of core.CollectProfile
	// and core.CollectFleetProfile are functional, because nobody reads
	// their timing; the LBR ring, the sample grid, the exit value and every
	// fault are the modeled run's. TrackLoadMisses needs the model.
	DisableUarch bool

	// KeepMemory retains the final data-segment image in the result;
	// instrumented-PGO builds read their counters back through it.
	KeepMemory bool

	// TrackLoadMisses records per-PC L1d miss counts into the result —
	// the cache-miss profile that drives §3.5 prefetch insertion.
	TrackLoadMisses bool

	// TraceBlocks, when non-nil, is a checking mode: the binary's own
	// address map, through which the run folds the identity (function
	// name, stable block ID) of every block it enters into
	// Result.BlockTrace. Layout moves blocks but must never change which
	// run or in what order, so every layout of one program on one input
	// gives one hash. The mode takes the slow step on every instruction.
	// With DisableUarch, a heat-map or trace run still drives the timing
	// model (it takes the modeled loop) and only reports no timing.
	TraceBlocks *bbaddrmap.Lookup
}

// RunError describes an execution fault; BOLT-corrupted binaries surface
// as these (the "Crash" cells of Table 3).
type RunError struct {
	PC   uint64
	Inst uint64 // retired instruction count at fault
	Msg  string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("sim: fault at pc=%#x after %d instructions: %s", e.PC, e.Inst, e.Msg)
}

// Result is the outcome of a run.
type Result struct {
	Exit     int64 // r0 at halt
	Insts    uint64
	Cycles   uint64
	Counters Counters
	// Profile holds the run's LBR samples when LBRPeriod was set and no
	// OnSample callback consumed them as a stream.
	Profile *profile.Profile

	// DataImage is the final data segment (including BSS) when
	// Config.KeepMemory was set; it starts at the binary's DataBase.
	DataImage []byte

	// LoadMisses maps load-instruction addresses to their L1d miss
	// counts (when Config.TrackLoadMisses was set).
	LoadMisses map[uint64]uint64

	// BlockTrace is the rolling hash of the blocks entered (when
	// Config.TraceBlocks was set; 0 if none was).
	BlockTrace uint64
}

// IPC returns retired instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// cachedInst is one pre-decoded instruction, packed to 8 bytes: the decode
// table has an entry per text byte, so its density decides how much of the
// hot code's table the host's L1 holds.
type cachedInst struct {
	// imm is the immediate or displacement. Only movi64 can carry one that
	// does not fit; that one gets the hMovI64 handler, which reads text.
	imm int32
	op  handler
	// a and b are the register operands, except that a conditional branch
	// keeps its condition in a as a mask over the three flag values: bit
	// flags+1 is set when the branch is taken.
	a, b byte
	// size is the encoded length, or noInst at an address where nothing
	// decodes (or that lies outside text). noInst is larger than a fetch
	// window, so such an entry never passes the in-window test and always
	// reaches the slow step, which reports the fault.
	size uint8
}

// handler is an opcode renumbered for dispatch: the opcode space has gaps
// (so that embedded data fails to decode), the handlers are dense from 1, and
// forms that execute alike share one, so Run's switch is a single jump table.
type handler uint8

const (
	hNone handler = iota // no such instruction
	hNop
	hHalt
	hRet
	hMovRR
	hMovI   // movi, and movi64 of a value that fits 32 bits
	hMovI64 // movi64 of one that does not
	hAdd
	hSub
	hMul
	hDiv
	hMod
	hAnd
	hOr
	hXor
	hShl
	hShr
	hAddI
	hCmp
	hCmpI
	hLoad
	hStore
	hPrefetch
	hPush
	hPop
	hJmp // rel8 and rel32
	hJcc // all twelve conditional branches; the condition is a mask in a
	hJmpR
	hCall
	hCallR
	hThrow
)

var handlers = [256]handler{
	isa.OpNop: hNop, isa.OpHalt: hHalt, isa.OpRet: hRet,
	isa.OpMovRR: hMovRR, isa.OpMovI: hMovI, isa.OpMovI64: hMovI,
	isa.OpAdd: hAdd, isa.OpSub: hSub, isa.OpMul: hMul, isa.OpDiv: hDiv, isa.OpMod: hMod,
	isa.OpAnd: hAnd, isa.OpOr: hOr, isa.OpXor: hXor, isa.OpShl: hShl, isa.OpShr: hShr,
	isa.OpAddI: hAddI, isa.OpCmp: hCmp, isa.OpCmpI: hCmpI,
	isa.OpLoad: hLoad, isa.OpStore: hStore, isa.OpPrefetch: hPrefetch,
	isa.OpPush: hPush, isa.OpPop: hPop,
	isa.OpJmp: hJmp, isa.OpJmpS: hJmp,
	isa.OpJeq: hJcc, isa.OpJne: hJcc, isa.OpJlt: hJcc, isa.OpJle: hJcc, isa.OpJgt: hJcc, isa.OpJge: hJcc,
	isa.OpJeqS: hJcc, isa.OpJneS: hJcc, isa.OpJltS: hJcc, isa.OpJleS: hJcc, isa.OpJgtS: hJcc, isa.OpJgeS: hJcc,
	isa.OpJmpR: hJmpR, isa.OpCall: hCall, isa.OpCallR: hCallR,
	isa.OpThrow: hThrow,
}

const noInst = 0xFF

// Decoded pages cover 4 KB of address space, aligned in address space (not
// in text offsets) so that a 32-byte fetch window never spans two of them.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]cachedInst

// fetchWindow is the span of addresses the fetch model treats as one unit:
// the 32-byte DSB window, two to a cache line.
const fetchWindow = 1 << dsbWindowBits

// Program is a loaded binary ready to execute, safe for any number of
// concurrent Run calls. Its only mutable state is the decode table, which
// fills in one page at a time as runs first fetch from it; all run state
// (registers, stack, data image, uarch model, LBR ring) is private to each
// Run call.
type Program struct {
	bin  *objfile.Binary
	lsda map[uint64]uint64 // call-site end address → landing pad

	// pages is the decode table: one entry per address, in pages indexed
	// by (pc >> pageBits) - firstPage. Every address of a page is decoded,
	// not just instruction starts: jump tables may live inside text
	// (data-in-code), so instruction boundaries are unknowable statically
	// and per-offset decoding is the only scheme that never
	// desynchronizes. A page is decoded when a run first fetches from it
	// — most of a warehouse-scale binary is never fetched at all — and
	// published through its atomic pointer; it is immutable from then on.
	pages     []atomic.Pointer[page]
	firstPage uint64
	decodeMu  sync.Mutex // serializes decoding, so a page is built once
}

// Load prepares a binary for execution. The returned Program is safe for
// concurrent Run calls: fleet collection loads once and shares it across
// every simulated host.
func Load(bin *objfile.Binary) (*Program, error) {
	p := &Program{bin: bin}
	if len(bin.LSDA)%16 != 0 {
		return nil, fmt.Errorf("sim: LSDA size %d not a multiple of 16", len(bin.LSDA))
	}
	p.lsda = make(map[uint64]uint64, len(bin.LSDA)/16)
	for off := 0; off+16 <= len(bin.LSDA); off += 16 {
		call := binary.LittleEndian.Uint64(bin.LSDA[off:])
		pad := binary.LittleEndian.Uint64(bin.LSDA[off+8:])
		p.lsda[call] = pad
	}
	// Keeps pc+size and the end of a page or window from wrapping in Run.
	if room := ^uint64(0) - bin.TextBase; uint64(len(bin.Text)) > room || room-uint64(len(bin.Text)) < pageSize {
		return nil, fmt.Errorf("sim: text segment at %#x runs into the end of the address space", bin.TextBase)
	}
	if bin.Entry < bin.TextBase || bin.Entry >= bin.TextEnd() {
		return nil, fmt.Errorf("sim: entry %#x outside text", bin.Entry)
	}
	p.firstPage = bin.TextBase >> pageBits
	p.pages = make([]atomic.Pointer[page], (bin.TextEnd()-1)>>pageBits-p.firstPage+1)
	return p, nil
}

// decodePage builds and publishes decoded page i.
func (p *Program) decodePage(i uint64) *page {
	p.decodeMu.Lock()
	defer p.decodeMu.Unlock()
	if pg := p.pages[i].Load(); pg != nil {
		return pg // another run got here first
	}
	pg := new(page)
	text := p.bin.Text
	off := (p.firstPage+i)<<pageBits - p.bin.TextBase // wraps below text; TryDecode rejects it
	for j := range pg {
		ci := &pg[j]
		inst, size := isa.TryDecode(text, int(off)+j)
		if size == 0 {
			ci.size = noInst
			continue
		}
		*ci = cachedInst{imm: int32(inst.Imm), op: handlers[inst.Op], a: inst.A, b: inst.B, size: uint8(size)}
		switch {
		case ci.op == hNone:
			ci.size = noInst // an opcode the simulator does not implement; fetchFault names it
		case inst.Op.IsCondBranch():
			ci.a = condMasks[inst.Op.BranchCond()]
		case int64(ci.imm) != inst.Imm:
			ci.op = hMovI64
		}
	}
	p.pages[i].Store(pg)
	return pg
}

// condMasks holds, per condition, which of the flag values -1, 0, +1 (bits
// 0, 1, 2) satisfy it.
var condMasks = [isa.NumConds]byte{
	isa.CondEQ: 0b010,
	isa.CondNE: 0b101,
	isa.CondLT: 0b001,
	isa.CondLE: 0b011,
	isa.CondGT: 0b100,
	isa.CondGE: 0b110,
}

type frame struct {
	retAddr  uint64
	spBefore uint64
	fpAtCall int64 // frame pointer to restore when unwinding into this frame
}

// memory is the address space of one run. A segment check is written as
// addr-base against the segment length, so an address near 2^64 cannot
// wrap its way past it.
//
// stack holds the top of the stack grown so far, from stackBase up to
// StackTop; the stack's bound reaches down to stackLimit, stackSize bytes
// below StackTop. Only stackWord grows it.
type memory struct {
	stack, data, rodata, text                 []byte
	stackBase, dataBase, rodataBase, textBase uint64
	stackLimit, stackSize                     uint64
}

// newStack sets up a stack bounded to size bytes: its first stackChunk,
// or all of it where the data segment reaches into the bound, since the
// loops' inline data access looks in the stack grown so far and then in
// data, which only an untouched bound keeps equal to looking in the whole
// stack first.
func (mem *memory) newStack(size uint64) {
	mem.stackSize, mem.stackLimit = size, StackTop-size
	n := min(size, stackChunk)
	if d := uint64(len(mem.data)); d > 0 && (mem.dataBase-mem.stackLimit < size || mem.stackLimit-mem.dataBase < d) {
		n = size
	}
	mem.stack, mem.stackBase = make([]byte, n), StackTop-n
}

// stackWord returns the stack's 8 bytes at addr, or nil if they are not
// all within its bound. An address below what the stack holds so far grows
// it, by doubling and at least to addr, toward the bound; memory the run
// never wrote reads as zero.
func (mem *memory) stackWord(addr uint64) []byte {
	if w := word(mem.stack, addr-mem.stackBase); w != nil {
		return w
	}
	if off := addr - mem.stackLimit; off >= mem.stackSize || mem.stackSize-off < 8 {
		return nil
	}
	have := uint64(len(mem.stack))
	n := min(max(2*have, StackTop-addr), mem.stackSize)
	grown := make([]byte, n)
	copy(grown[n-have:], mem.stack)
	mem.stack, mem.stackBase = grown, StackTop-n
	return word(mem.stack, addr-mem.stackBase)
}

// word returns the 8 bytes of seg at off, or nil if they are not all there.
func word(seg []byte, off uint64) []byte {
	if off < uint64(len(seg)) {
		if b := seg[off:]; len(b) >= 8 {
			return b[:8]
		}
	}
	return nil
}

// arenaSink is where a run's samples go when the caller gave no OnSample:
// their records go into the arena, their headers into chunks that double
// from sampleChunkMin up to sampleChunkMax samples, and samples lays the
// chunks end to end once the run is over, at the list's final length. A
// growing slice would copy every header about four times over. It hands
// the finished part of the current chunk to Config.OnBatch whenever the
// chunk or an arena block fills.
type arenaSink struct {
	arena   sampleArena
	onBatch func([]profile.Sample) // may be nil
	full    [][]profile.Sample     // the filled chunks, in order
	held    int                    // samples in full
	chunk   []profile.Sample       // the chunk being filled
	sent    int                    // samples of chunk already handed to onBatch
}

// The header chunks' sizes, in samples: a 24-byte header each, so from
// 24 KB to 384 KB.
const (
	sampleChunkMin = 1 << 10
	sampleChunkMax = 1 << 14
)

// next appends a sample of n records and returns its records to fill.
func (s *arenaSink) next(n int) []profile.Branch {
	if full := len(s.chunk) == cap(s.chunk); full || !s.arena.fits(n) {
		// The chunk is done, or the carve below abandons the current
		// block: everything sampled so far is final.
		s.flush()
		if full {
			if s.chunk != nil {
				s.full, s.held = append(s.full, s.chunk), s.held+len(s.chunk)
			}
			s.chunk = make([]profile.Sample, 0, min(max(2*cap(s.chunk), sampleChunkMin), sampleChunkMax))
			s.sent = 0
		}
	}
	recs := s.arena.alloc(n)
	s.chunk = append(s.chunk, profile.Sample{Records: recs})
	return recs
}

// take snapshots the ring straight into the arena as the next sample.
func (s *arenaSink) take(l *lbrRing) {
	l.snapshotInto(s.next(l.count()))
}

// flush hands onBatch the samples taken since the last flush. The chunk
// takes the samples after them in its own capacity, which the batch's
// clamp leaves out, and is never appended past it.
func (s *arenaSink) flush() {
	if n := len(s.chunk); s.onBatch != nil && n > s.sent {
		s.onBatch(s.chunk[s.sent:n:n])
		s.sent = n
	}
}

// samples is every sample taken, in one slice of exactly their number (nil
// for none).
func (s *arenaSink) samples() []profile.Sample {
	n := s.held + len(s.chunk)
	if n == 0 {
		return nil
	}
	out := make([]profile.Sample, 0, n)
	for _, c := range s.full {
		out = append(out, c...)
	}
	return append(out, s.chunk...)
}

// machine is the architectural and model state of one run: what an
// instruction can read or change.
type machine struct {
	regs      [isa.NumRegs]int64
	flags     int64 // sign of the last comparison
	mem       memory
	callStack []frame
	lbr       lbrRing
	u         *uarch            // nil when Config.DisableUarch
	heat      *heatmap.Recorder // nil unless Config.Heatmap
	trace     *blockTrace       // nil unless Config.TraceBlocks
	watch     bool              // heat or trace: every instruction takes the slow step
	timeless  bool              // watch with DisableUarch: u is driven only to take model, and dropped

	// winEnd is model's fetch window between its calls: the end of the
	// window of the last instruction the fetch model saw, or 0 when the
	// next instruction must be fetched (after a taken transfer, at the
	// start of the run, and always under a heat map or a block trace).
	winEnd uint64

	loadMisses map[uint64]uint64 // nil unless Config.TrackLoadMisses drives a real model
	lsda       map[uint64]uint64

	exit int64  // r0 at halt
	msg  string // why model or step returned stopFault
}

// stop says why model or step returned.
type stop uint8

const (
	stopLeave stop = iota // the next instruction is in another page, or none is left
	stopHalt              // the program ended
	stopFault             // the instruction at the returned pc faulted (machine.msg)
	stopNone              // (rare only) the next instruction is in the same page and due
)

// Run executes the program with the given configuration. Runs are
// independent: concurrent Run calls on one Program do not share state.
//
// Run hands each decoded page to one of two loops, chosen once from what
// the run needs. Both return here when control leaves the page, when the
// countdown to the next sample or the end of the budget runs out, and when
// the run halts or faults; Run takes the sample, ends the run or looks up
// the next page. Both keep pc, the countdown and the flags in locals,
// follow direct and returning transfers within the page, and run out of
// line (in rare) every instruction they do not spell out.
//
// A run that models nothing per fetch (no timing model, heat map or block
// trace) takes step: there is nothing to see at a fetch window, so every
// instruction is one dispatch.
//
// Every other run takes model, which also keeps the end of the last
// fetched 32-byte window in a local. Only an instruction that is not
// wholly inside that window — the first of a window, one that extends
// past it, and any after a taken transfer (every one, under a heat map or
// a block trace) — takes the slow step, the out-of-line call that runs the
// fetch model, the heat map and the block trace. That is exact because the
// fetch model can only change state at those points (see uarch.fetch),
// the instruction-side model and everything an instruction itself touches
// are disjoint, and cycles are additive, so the per-instruction base cycle
// is added from the instruction count at the end. The branch, return and
// data-cache models' common cases (a BTB hit, the gshare update, an L1d
// hit on the most recent way) are inline; their misses are calls.
//
// With OnGridSample, one run serves every grid: a sampling point is due
// when any grid's is, and the snapshot goes to each grid due there.
func (p *Program) Run(cfg Config) (*Result, error) {
	maxInsts := cfg.MaxInsts
	if maxInsts == 0 {
		maxInsts = 500_000_000
	}
	stackSize := cfg.StackSize
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	if cfg.LBRGrids > 1 && cfg.OnGridSample == nil {
		return nil, fmt.Errorf("sim: %d sampling grids need OnGridSample", cfg.LBRGrids)
	}
	bin := p.bin

	data := make([]byte, int64(len(bin.Data))+bin.BSSSize)
	copy(data, bin.Data)
	m := &machine{
		mem: memory{
			data: data, dataBase: bin.DataBase,
			rodata: bin.Rodata, rodataBase: bin.RodataBase,
			text: bin.Text, textBase: bin.TextBase,
		},
		heat: cfg.Heatmap,
		lsda: p.lsda,
	}
	m.mem.newStack(stackSize)
	m.regs[isa.RegArg0] = cfg.Args[0]
	m.regs[isa.RegArg1] = cfg.Args[1]
	m.regs[isa.RegArg2] = cfg.Args[2]
	m.regs[isa.RegArg3] = cfg.Args[3]
	m.regs[isa.RegSP] = int64(StackTop)
	if cfg.TraceBlocks != nil {
		m.trace = newBlockTrace(cfg.TraceBlocks)
	}
	m.watch = m.heat != nil || m.trace != nil
	res := &Result{}
	if cfg.TrackLoadMisses {
		res.LoadMisses = map[uint64]uint64{}
	}
	if !cfg.DisableUarch || m.watch {
		// A heat-map or trace run takes model, which needs a model to
		// drive; with DisableUarch its output is dropped below.
		m.u = newUarch(bin.HugePages)
		if m.timeless = cfg.DisableUarch; !m.timeless {
			m.loadMisses = res.LoadMisses
		}
	}
	functional := m.u == nil

	// Sampling has one site in the loop. A sample goes to the caller's
	// callback through sampleBuf, or straight from the ring into the arena
	// that fills Result.Profile.
	//
	// With g = min(grids, period) distinct grids modulo the period, the
	// retired counts at which some grid samples are those whose
	// q = (retired + LBRPhase + g - 1) mod period is below g, and grid
	// g-1-q is the first due there (the others are it plus multiples of
	// the period). The due count advances by one while q stays below g,
	// and otherwise to the next count whose q is 0.
	var sampleBuf [profile.LBRDepth]profile.Branch
	var sink *arenaSink
	onSample := cfg.OnGridSample
	period := cfg.LBRPeriod
	grids, g, q := uint64(1), uint64(1), uint64(0)
	nextSample := ^uint64(0) // retired count at which the next sample is due
	if period > 0 {
		switch {
		case onSample != nil:
			grids = uint64(max(cfg.LBRGrids, 1))
		case cfg.OnSample != nil:
			onSample = func(_ int, s profile.Sample) error { return cfg.OnSample(s) }
		default:
			res.Profile = &profile.Profile{Period: period, BuildID: bin.BuildID}
			sink = &arenaSink{onBatch: cfg.OnBatch}
		}
		g = min(grids, period)
		// q of the first instruction, written so that nothing wraps.
		if ph := cfg.LBRPhase % period; g >= period-ph {
			q = g - (period - ph)
		} else {
			q = ph + g
		}
		if nextSample = 1; q >= g {
			nextSample, q = 1+period-q, 0
		}
	}

	// Retired instructions are counted down: the run has retired
	// limit-left, and limit is the next count at which something other
	// than execution is due (a sample or the end of the budget).
	var limit, left uint64

	pc := bin.Entry
	var (
		why stop
		err error
	)
	for {
		if left == 0 {
			if limit == nextSample {
				if sink != nil {
					sink.take(&m.lbr)
				} else if err = m.emit(onSample, sampleBuf[:m.lbr.count()], g-1-q, grids, period); err != nil {
					break
				}
				prev := nextSample
				if q+1 < g {
					nextSample, q = nextSample+1, q+1
				} else {
					nextSample, q = nextSample+period-q, 0
				}
				if nextSample < prev {
					nextSample = ^uint64(0)
				}
			}
			if limit >= maxInsts {
				why, m.msg = stopFault, fmt.Sprintf("instruction budget of %d exhausted", maxInsts)
				break
			}
			left = min(maxInsts, nextSample) - limit
			limit += left
		}
		i := pc>>pageBits - p.firstPage
		if i >= uint64(len(p.pages)) {
			why, m.msg = stopFault, m.fetchFault(pc)
			break
		}
		pg := p.pages[i].Load()
		if pg == nil {
			pg = p.decodePage(i)
		}
		if functional {
			pc, left, why = m.step(pg, pc, left)
		} else {
			pc, left, why = m.model(pg, pc, left, limit)
		}
		if why != stopLeave {
			break
		}
	}

	// Every exit comes through here: cycles, counters and memory are
	// recorded for a faulted run too, and its last samples are handed on.
	if sink != nil {
		sink.flush()
		res.Profile.Samples = sink.samples()
	}
	res.Exit = m.exit
	res.Insts = limit - left
	res.Cycles = res.Insts
	if u := m.u; u != nil && !m.timeless {
		res.Counters = u.c
		res.Cycles += u.cycles
	}
	if cfg.KeepMemory {
		res.DataImage = data
	}
	if m.trace != nil {
		res.BlockTrace = m.trace.hash
	}
	switch {
	case err != nil:
		return res, err
	case why == stopFault:
		return res, &RunError{PC: pc, Inst: res.Insts, Msg: m.msg}
	}
	return res, nil
}

// RunGrids is Run with grids sampling grids (Config.LBRGrids) whose
// samples are materialized, each grid's into its own profile: profile h is
// the Result.Profile a run at phase LBRPhase+h alone would return. cfg's
// OnSample, OnGridSample and OnBatch are not used.
func (p *Program) RunGrids(cfg Config, grids int) (*Result, []*profile.Profile, error) {
	sinks := make([]arenaSink, grids)
	cfg.OnSample, cfg.OnBatch, cfg.LBRGrids = nil, nil, grids
	cfg.OnGridSample = func(h int, s profile.Sample) error {
		copy(sinks[h].next(len(s.Records)), s.Records)
		return nil
	}
	res, err := p.Run(cfg)
	profs := make([]*profile.Profile, grids)
	for h := range profs {
		profs[h] = &profile.Profile{Period: cfg.LBRPeriod, BuildID: p.bin.BuildID, Samples: sinks[h].samples()}
	}
	return res, profs, err
}

// emit snapshots the ring into recs and hands it to onSample once for each
// grid due: first, first+period, ... below grids.
func (m *machine) emit(onSample func(int, profile.Sample) error, recs []profile.Branch, first, grids, period uint64) error {
	m.lbr.snapshotInto(recs)
	s := profile.Sample{Records: recs}
	for h := first; ; h += period {
		if err := onSample(int(h), s); err != nil {
			return err
		}
		if grids-h <= period {
			return nil
		}
	}
}

// step runs a functional run from pc, an address in decoded page pg, until
// control leaves the page, the left instructions due before Run has to look
// again are retired, or the run ends. It returns the next pc and what
// remains of left; on stopFault, the pc that faulted.
//
// It is model without the timing model, and exact for that reason: with no
// timing model, heat map or block trace, entering a fetch window changes
// nothing, so every instruction is one dispatch. Its state stays in locals
// and its common cases make no call: ALU ops, compares, jumps and
// conditional branches, and push, pop, call and ret while their stack slot
// (and, for a call, the shadow call stack's capacity) is there. Everything
// else goes through rare, the one call site. A transfer whose target is in
// the same page records its LBR entry and carries on; leaving the page
// returns to Run.
func (m *machine) step(pg *page, pc, left uint64) (uint64, uint64, stop) {
	regs := &m.regs
	flags := m.flags
	var why stop // rare's verdict
	for {
		ci := &pg[pc&pageMask]
		left--
		next := pc + uint64(ci.size)
		a, b, imm := ci.a&(isa.NumRegs-1), ci.b&(isa.NumRegs-1), int64(ci.imm)
		var target uint64

		switch ci.op {
		case hNop, hPrefetch: // a prefetch only informs the timing model
		case hMovRR:
			regs[a] = regs[b]
		case hMovI:
			regs[a] = imm
		case hAdd:
			regs[a] += regs[b]
		case hSub:
			regs[a] -= regs[b]
		case hMul:
			regs[a] *= regs[b]
		case hAnd:
			regs[a] &= regs[b]
		case hOr:
			regs[a] |= regs[b]
		case hXor:
			regs[a] ^= regs[b]
		case hShl:
			regs[a] <<= uint64(regs[b]) & 63
		case hShr:
			regs[a] = int64(uint64(regs[a]) >> (uint64(regs[b]) & 63))
		case hAddI:
			regs[a] += imm
		case hCmp:
			flags = sign(regs[a] - regs[b])
		case hCmpI:
			flags = sign(regs[a] - imm)
		case hPush:
			w := word(m.mem.stack, uint64(regs[isa.RegSP])-8-m.mem.stackBase)
			if w == nil {
				goto rare
			}
			binary.LittleEndian.PutUint64(w, uint64(regs[a]))
			regs[isa.RegSP] -= 8
		case hPop:
			w := word(m.mem.stack, uint64(regs[isa.RegSP])-m.mem.stackBase)
			if w == nil {
				goto rare
			}
			regs[a] = int64(binary.LittleEndian.Uint64(w))
			regs[isa.RegSP] += 8
		case hJmp:
			target = next + uint64(imm)
			goto taken
		case hJcc:
			if ci.a>>uint(flags+1)&1 != 0 { // decodePage left the condition mask in a
				target = next + uint64(imm)
				goto taken
			}
		case hJmpR:
			target = uint64(regs[a])
			goto taken
		case hCall:
			sp := uint64(regs[isa.RegSP]) - 8
			w, n := word(m.mem.stack, sp-m.mem.stackBase), len(m.callStack)
			if w == nil || n == cap(m.callStack) {
				goto rare
			}
			binary.LittleEndian.PutUint64(w, next)
			regs[isa.RegSP] = int64(sp)
			// Within capacity: append would bring a call into the loop.
			m.callStack = m.callStack[:n+1]
			m.callStack[n] = frame{retAddr: next, spBefore: sp + 8, fpAtCall: regs[isa.RegFP]}
			target = next + uint64(imm)
			goto taken
		case hRet:
			w, n := word(m.mem.stack, uint64(regs[isa.RegSP])-m.mem.stackBase), len(m.callStack)
			if w == nil || n == 0 {
				goto rare
			}
			target = binary.LittleEndian.Uint64(w)
			regs[isa.RegSP] += 8
			m.callStack = m.callStack[:n-1]
			goto taken
		default:
			goto rare
		}

		// Fall through: next is in this page or the one after it.
		if left == 0 || (next^pc) >= pageSize {
			pc = next
			break
		}
		pc = next
		continue

	rare:
		// Nothing the loop holds is live across the call: pc and left
		// come back from it, and flags goes through m. So no register
		// is spilled for it on the common path.
		m.flags = flags
		if pc, left, why = m.rare(pg, pc, left); why != stopNone {
			return pc, left, why
		}
		flags = m.flags
		continue

	taken:
		m.lbr.push(pc, target)
		if left == 0 || (target^pc) >= pageSize {
			pc = target
			break
		}
		pc = target
	}
	m.flags = flags
	return pc, left, stopLeave
}

// rare executes, for step and model, the instruction at pc in decoded page
// pg, with left the countdown after it: every kind the loop does not spell
// out, and a push, pop, call or ret (and in model a load or store) whose
// inline path does not apply. It returns the next pc and the countdown, records the LBR
// entry of a taken transfer, and says stopNone when the loop carries on in
// the same page. In a modeled run it also drives the timing model, and
// after a taken transfer clears winEnd so that model fetches next.
func (m *machine) rare(pg *page, pc, left uint64) (uint64, uint64, stop) {
	regs, ci, u := &m.regs, &pg[pc&pageMask], m.u
	next := pc + uint64(ci.size)
	a, b, imm := ci.a&(isa.NumRegs-1), ci.b&(isa.NumRegs-1), int64(ci.imm)
	ok := true
	var target uint64
	switch ci.op {
	case hNone:
		m.msg = m.fetchFault(pc)
		return pc, left + 1, stopFault // nothing was fetched
	case hHalt:
		return pc, left, m.halt()
	case hMovI64:
		regs[a] = m.movi64(pc)
	case hDiv, hMod:
		var v int64
		if v, ok = m.divide(ci.op, regs[a], regs[b]); ok {
			regs[a] = v
		}
	case hLoad:
		addr := uint64(regs[a] + imm)
		var v int64
		if v, ok = m.load(addr); ok {
			regs[b] = v
			if u != nil {
				u.c.Loads++
				m.dataMiss(pc, addr, true)
			}
		}
	case hStore:
		addr := uint64(regs[a] + imm)
		if ok = m.store(addr, regs[b]); ok && u != nil {
			m.dataMiss(pc, addr, false)
		}
	case hPush:
		ok = m.push(regs[a])
	case hPop:
		var v int64
		if v, ok = m.load(uint64(regs[isa.RegSP])); ok {
			regs[a] = v
			regs[isa.RegSP] += 8
		}
	case hCall, hCallR:
		target = next + uint64(imm)
		if ci.op == hCallR {
			target = uint64(regs[a])
		}
		if ok = m.push(int64(next)); ok {
			m.callStack = append(m.callStack, frame{retAddr: next, spBefore: uint64(regs[isa.RegSP]) + 8, fpAtCall: regs[isa.RegFP]})
			if u != nil {
				u.call(pc, target, next, ci.op == hCallR)
			}
		}
		goto transfer
	case hRet:
		if len(m.callStack) == 0 {
			return pc, left, m.halt()
		}
		var v int64
		if v, ok = m.load(uint64(regs[isa.RegSP])); ok {
			regs[isa.RegSP] += 8
			m.callStack = m.callStack[:len(m.callStack)-1]
			target = uint64(v)
			if u != nil {
				u.ret(target)
			}
		}
		goto transfer
	case hThrow:
		if target, ok = m.throw(); ok && u != nil {
			u.takenBranch(pc, target, true, false)
		}
		goto transfer
	}
	if !ok {
		return pc, left, stopFault
	}
	if left == 0 || (next^pc) >= pageSize {
		return next, left, stopLeave
	}
	return next, left, stopNone

transfer:
	if !ok {
		return pc, left, stopFault
	}
	m.lbr.push(pc, target)
	m.winEnd = 0
	if left == 0 || (target^pc) >= pageSize {
		return target, left, stopLeave
	}
	return target, left, stopNone
}

// model runs a modeled run from pc, an address in decoded page pg, until
// control leaves the page, the left instructions due before Run has to
// look again (the run will have retired limit of them then) are retired,
// or the run ends. It returns the next pc and what remains of left; on
// stopFault, the pc that faulted.
//
// It is step with the timing model: pc, left, the flags and winEnd stay in
// locals. An instruction not wholly inside winEnd's window takes the slow
// step, a call to uarch.fetch (or see, under a heat map or a block trace).
// The model's common cases are inline; a miss of the BTB, the indirect
// target or the most recent L1d way goes to missed, and everything step
// does not spell out to rare, both of which finish the instruction out of
// line and take and return pc and left, with the flags and winEnd passed
// through m, so that nothing the loop holds is live across them.
func (m *machine) model(pg *page, pc, left, limit uint64) (uint64, uint64, stop) {
	regs, u := &m.regs, m.u
	flags, winEnd := m.flags, m.winEnd
	var why stop // rare's verdict
	for {
		ci := &pg[pc&pageMask]
		if pc+uint64(ci.size) > winEnd {
			// Slow step. An address where nothing decodes always lands
			// here, since noInst is wider than a window.
			if ci.size == noInst {
				m.flags, m.winEnd = flags, winEnd
				m.msg = m.fetchFault(pc)
				return pc, left, stopFault
			}
			m.flags = flags // not held across the call, as around rare below
			if m.watch {
				m.see(pc, uint64(ci.size), limit-left)
				winEnd = 0 // they see every fetch
			} else {
				winEnd = u.fetch(pc, uint64(ci.size))
			}
			flags = m.flags
		}
		left--
		next := pc + uint64(ci.size)
		a, b, imm := ci.a&(isa.NumRegs-1), ci.b&(isa.NumRegs-1), int64(ci.imm)
		var target uint64 // or, for missed, a data address

		switch ci.op {
		case hNop:
		case hMovRR:
			regs[a] = regs[b]
		case hMovI:
			regs[a] = imm
		case hAdd:
			regs[a] += regs[b]
		case hSub:
			regs[a] -= regs[b]
		case hMul:
			regs[a] *= regs[b]
		case hAnd:
			regs[a] &= regs[b]
		case hOr:
			regs[a] |= regs[b]
		case hXor:
			regs[a] ^= regs[b]
		case hShl:
			regs[a] <<= uint64(regs[b]) & 63
		case hShr:
			regs[a] = int64(uint64(regs[a]) >> (uint64(regs[b]) & 63))
		case hAddI:
			regs[a] += imm
		case hCmp:
			flags = sign(regs[a] - regs[b])
		case hCmpI:
			flags = sign(regs[a] - imm)
		case hLoad:
			// The stack, then data: load's own order.
			addr := uint64(regs[a] + imm)
			w := word(m.mem.stack, addr-m.mem.stackBase)
			if w == nil {
				if w = word(m.mem.data, addr-m.mem.dataBase); w == nil {
					goto rare
				}
			}
			regs[b] = int64(binary.LittleEndian.Uint64(w))
			u.c.Loads++
			if line := addr >> lineBits; u.l1d[line%l1dSets][0] != line {
				target = addr
				goto missed
			}
		case hStore:
			addr := uint64(regs[a] + imm)
			w := word(m.mem.stack, addr-m.mem.stackBase)
			if w == nil {
				if w = word(m.mem.data, addr-m.mem.dataBase); w == nil {
					goto rare
				}
			}
			binary.LittleEndian.PutUint64(w, uint64(regs[b]))
			if line := addr >> lineBits; u.l1d[line%l1dSets][0] != line {
				target = addr
				goto missed
			}
		case hPrefetch:
			u.c.Prefetches++
			if target = uint64(regs[a] + imm); u.l1d[target>>lineBits%l1dSets][0] != target>>lineBits {
				goto missed
			}
		case hPush:
			w := word(m.mem.stack, uint64(regs[isa.RegSP])-8-m.mem.stackBase)
			if w == nil {
				goto rare
			}
			binary.LittleEndian.PutUint64(w, uint64(regs[a]))
			regs[isa.RegSP] -= 8
		case hPop:
			w := word(m.mem.stack, uint64(regs[isa.RegSP])-m.mem.stackBase)
			if w == nil {
				goto rare
			}
			regs[a] = int64(binary.LittleEndian.Uint64(w))
			regs[isa.RegSP] += 8
		case hJmp:
			target = next + uint64(imm)
			goto direct
		case hJcc:
			u.c.CondBranches++
			if ci.a>>uint(flags+1)&1 != 0 { // decodePage left the condition mask in a
				target = next + uint64(imm)
				u.predict(pc, true)
				goto direct
			}
			u.c.NotTakenBr++
			u.predict(pc, false)
		case hJmpR:
			target = uint64(regs[a])
			if slot := pc % btbEntries; u.btbTag[slot] != pc || u.btbTarget[slot] != target {
				goto missed
			}
			u.c.TakenBranch++
			u.redirect()
			goto taken
		case hCall:
			sp := uint64(regs[isa.RegSP]) - 8
			w, n := word(m.mem.stack, sp-m.mem.stackBase), len(m.callStack)
			if w == nil || n == cap(m.callStack) {
				goto rare
			}
			binary.LittleEndian.PutUint64(w, next)
			regs[isa.RegSP] = int64(sp)
			m.callStack = m.callStack[:n+1]
			m.callStack[n] = frame{retAddr: next, spBefore: sp + 8, fpAtCall: regs[isa.RegFP]}
			target = next + uint64(imm)
			u.rsb[u.rsbTop&15] = next
			u.rsbTop++
			goto direct
		case hRet:
			w, n := word(m.mem.stack, uint64(regs[isa.RegSP])-m.mem.stackBase), len(m.callStack)
			if w == nil || n == 0 {
				goto rare
			}
			target = binary.LittleEndian.Uint64(w)
			regs[isa.RegSP] += 8
			m.callStack = m.callStack[:n-1]
			u.ret(target)
			goto taken
		default:
			goto rare
		}

		// Fall through: next is in this page or the one after it.
		if left == 0 || (next^pc) >= pageSize {
			pc = next
			break
		}
		pc = next
		continue

	direct:
		// A direct transfer's BTB lookup (takenBranch's, inline on a hit).
		u.c.TakenBranch++
		if u.btbTag[pc%btbEntries] != pc {
			goto missed
		}
		u.redirect()
		goto taken

	rare:
		// As in step: nothing the loop holds is live across the call.
		m.flags, m.winEnd = flags, winEnd
		if pc, left, why = m.rare(pg, pc, left); why != stopNone {
			return pc, left, why
		}
		flags, winEnd = m.flags, m.winEnd
		continue

	missed:
		// Likewise for the rest of an instruction whose model lookup
		// missed.
		m.flags, m.winEnd = flags, winEnd
		if pc, left, why = m.missed(pg, pc, left, target); why != stopNone {
			return pc, left, why
		}
		flags, winEnd = m.flags, m.winEnd
		continue

	taken:
		m.lbr.push(pc, target)
		winEnd = 0
		if left == 0 || (target^pc) >= pageSize {
			pc = target
			break
		}
		pc = target
	}
	m.flags, m.winEnd = flags, winEnd
	return pc, left, stopLeave
}

// see is model's slow step under a heat map or a block trace, for the
// instruction of the given size at pc with retired instructions before it:
// the fetch model (unless the run reports no timing), the heat map and the
// block trace.
func (m *machine) see(pc, size, retired uint64) {
	if !m.timeless {
		m.u.fetch(pc, size)
	}
	if m.heat != nil {
		m.heat.Touch(pc, retired)
	}
	if m.trace != nil {
		m.trace.enter(pc)
	}
}

// missed finishes, for model, the instruction at pc in decoded page pg
// whose model lookup missed, with left the countdown after it and x the
// data address of a load, store or prefetch, or the target of a transfer:
// the rest of its model work, then what model does after an instruction.
// It returns as rare does.
func (m *machine) missed(pg *page, pc, left, x uint64) (uint64, uint64, stop) {
	ci, u := &pg[pc&pageMask], m.u
	next := pc + uint64(ci.size)
	switch ci.op {
	case hLoad, hStore:
		m.dataMiss(pc, x, ci.op == hLoad)
	case hPrefetch:
		line := x >> lineBits
		access(u.l1d[line%l1dSets][:], line)
	case hJmpR:
		u.takenBranch(pc, x, true, false)
		goto transfer
	default: // a direct transfer, already counted taken
		u.baclear(pc, x)
		u.redirect()
		goto transfer
	}
	if left == 0 || (next^pc) >= pageSize {
		return next, left, stopLeave
	}
	return next, left, stopNone

transfer:
	m.lbr.push(pc, x)
	m.winEnd = 0
	if left == 0 || (x^pc) >= pageSize {
		return x, left, stopLeave
	}
	return x, left, stopNone
}

// dataMiss is the data-cache model of a load (after its Loads count) or a
// store at addr by the instruction at pc, out of line: an access that
// missed the most recent way of its set, or any access from rare.
func (m *machine) dataMiss(pc, addr uint64, isLoad bool) {
	line := addr >> lineBits
	if access(m.u.l1d[line%l1dSets][:], line) {
		return
	}
	m.u.c.L1DMiss++
	m.u.cycles += penL1dMiss
	if isLoad && m.loadMisses != nil {
		m.loadMisses[pc]++
	}
}

// The rare instructions' architectural effects and every fault message,
// written once: rare calls these, and each one that can fault
// records the message in m.msg and reports false.

// fetchFault says why nothing can be fetched at pc: the decode table only
// records that nothing decodes there, and Run that pc has no page.
func (m *machine) fetchFault(pc uint64) string {
	off := pc - m.mem.textBase
	if off >= uint64(len(m.mem.text)) {
		return "instruction fetch outside text segment"
	}
	inst, _, err := isa.Decode(m.mem.text, int(off))
	if err == nil {
		return fmt.Sprintf("unimplemented opcode %v", inst.Op)
	}
	return fmt.Sprintf("instruction decode failed: %v", err)
}

// halt ends the program with r0 as its exit value.
func (m *machine) halt() stop {
	m.exit = m.regs[isa.RegRet]
	return stopHalt
}

// movi64 is the immediate of the movi64 at pc that does not fit the decode
// table.
func (m *machine) movi64(pc uint64) int64 {
	return int64(binary.LittleEndian.Uint64(m.mem.text[pc-m.mem.textBase+2:]))
}

// divide is div (h == hDiv) and mod.
func (m *machine) divide(h handler, x, y int64) (int64, bool) {
	switch {
	case y == 0 && h == hDiv:
		m.msg = "division by zero"
	case y == 0:
		m.msg = "modulo by zero"
	case h == hDiv:
		return x / y, true
	default:
		return x % y, true
	}
	return 0, false
}

// load reads the word at addr: a load's, a pop's or a ret's.
func (m *machine) load(addr uint64) (int64, bool) {
	mem := &m.mem
	b := mem.stackWord(addr)
	if b == nil {
		b = word(mem.data, addr-mem.dataBase)
	}
	if b == nil {
		b = word(mem.rodata, addr-mem.rodataBase)
	}
	if b == nil {
		// Jump tables may live inside text (data-in-code).
		b = word(mem.text, addr-mem.textBase)
	}
	if b == nil {
		m.msg = fmt.Sprintf("load from unmapped address %#x", addr)
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(b)), true
}

// store writes the word at addr: a store's, or a push's or a call's.
func (m *machine) store(addr uint64, v int64) bool {
	mem := &m.mem
	b := mem.stackWord(addr)
	if b == nil {
		b = word(mem.data, addr-mem.dataBase)
	}
	if b == nil {
		m.msg = fmt.Sprintf("store to unmapped or read-only address %#x", addr)
		return false
	}
	binary.LittleEndian.PutUint64(b, uint64(v))
	return true
}

// push decrements the stack pointer and stores v there.
func (m *machine) push(v int64) bool {
	m.regs[isa.RegSP] -= 8
	sp := uint64(m.regs[isa.RegSP])
	if sp < m.mem.stackLimit {
		m.msg = "stack overflow"
		return false
	}
	return m.store(sp, v)
}

// throw walks the shadow call stack outward to the innermost call site
// with a landing pad, restores the register state of the frame that owns
// it, and returns the pad.
func (m *machine) throw() (uint64, bool) {
	for i := len(m.callStack) - 1; i >= 0; i-- {
		fr := m.callStack[i]
		if pad, found := m.lsda[fr.retAddr]; found {
			m.callStack = m.callStack[:i]
			m.regs[isa.RegSP] = int64(fr.spBefore)
			// The CFI of §4.4 exists so the unwinder can restore the
			// callee-saved frame pointer of the landing frame; the
			// simulator applies that restoration directly.
			m.regs[isa.RegFP] = fr.fpAtCall
			return pad, true
		}
	}
	m.msg = "uncaught exception"
	return 0, false
}

func sign(v int64) int64 {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// The LBR sample arena's flat blocks double from 1k records up to 64k,
// where one allocation backs ~2k full-depth samples: the block size is a
// bound the arena grows toward on demand, so a run that takes a handful of
// samples does not pay for (and zero) a megabyte.
const (
	sampleArenaMinRecords = 1 << 10
	sampleArenaMaxRecords = 1 << 16
)

// sampleArena backs the records of a run's materialized LBR samples with
// flat blocks (arenaSink keeps their headers), so the per-sample snapshot
// is an arena carve instead of a heap allocation. Slices are
// capacity-clamped so appends cannot alias.
type sampleArena struct {
	block []profile.Branch
}

// fits reports whether alloc(n) would carve from the current block.
func (a *sampleArena) fits(n int) bool { return len(a.block)+n <= cap(a.block) }

func (a *sampleArena) alloc(n int) []profile.Branch {
	if !a.fits(n) {
		size := min(max(2*cap(a.block), sampleArenaMinRecords), sampleArenaMaxRecords)
		a.block = make([]profile.Branch, 0, size)
	}
	l := len(a.block)
	a.block = a.block[:l+n]
	return a.block[l : l+n : l+n]
}

// lbrRing is the 32-deep last branch record buffer.
type lbrRing struct {
	buf  [profile.LBRDepth]profile.Branch
	pos  int
	full bool
}

func (l *lbrRing) push(from, to uint64) {
	l.buf[l.pos] = profile.Branch{From: from, To: to}
	l.pos++
	if l.pos == len(l.buf) {
		l.pos = 0
		l.full = true
	}
}

// count reports how many records a snapshot would hold.
func (l *lbrRing) count() int {
	if l.full {
		return len(l.buf)
	}
	return l.pos
}

// snapshotInto copies the ring contents oldest-first into dst, which must
// hold count() records.
func (l *lbrRing) snapshotInto(dst []profile.Branch) {
	if l.full {
		n := copy(dst, l.buf[l.pos:])
		copy(dst[n:], l.buf[:l.pos])
	} else {
		copy(dst, l.buf[:l.pos])
	}
}
