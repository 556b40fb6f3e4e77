package sim

// The reference interpreter: PR 8's simulator exactly as it stood before
// the window-stepped rewrite — eager decode at every text offset, one loop
// iteration per instruction, the fetch model entered for every instruction,
// a 64-bit modulo per instruction for the sample grid, slice-of-slice
// caches indexed by %. Only identifiers are renamed (ref*). It exists so
// the differential tests in differential_test.go and the fuzz target in
// fuzz_test.go can hold both of the production simulator's loops (model for modeled runs, step for
// functional ones, each stepping by decoded page) to "bit-identical": it
// is the oracle, never an alternative mode, which is why it lives in a
// _test.go file.
//
// It keeps the old interpreter's one known defect on purpose: an access
// within 8 bytes of 2^64 panics (addr+8 wraps) instead of faulting, so the
// differential cells stay away from those addresses and
// TestAddressWrapFaults covers them against the production code alone.
//
// The one thing it shares with the production code is sampleArena, the
// backing store of a materialized profile: storage, not behaviour.

import (
	"encoding/binary"
	"fmt"

	"propeller/internal/isa"
	"propeller/internal/objfile"
	"propeller/internal/profile"
)

// refCachedInst is one pre-decoded instruction, packed to 16 bytes so the
// flat decode table stays cache-friendly. size 0 marks a text offset where
// no instruction decodes; executing it faults.
type refCachedInst struct {
	imm  int64
	op   isa.Op
	a, b byte
	size uint8
}

// refProgram is a loaded binary ready to execute. It is immutable after Load:
// the decode table and LSDA index are built once, so any number of Run
// calls — including concurrent ones from different goroutines — can share
// one refProgram. All mutable run state (registers, stack, data image, refUarch
// model, LBR ring) is private to each Run call.
type refProgram struct {
	bin  *objfile.Binary
	lsda map[uint64]uint64 // call-site end address → landing pad

	// code is the flat decode table, one entry per text byte, indexed by
	// pc - TextBase. Every offset is decoded eagerly at Load: jump tables
	// may live inside text (data-in-code), so instruction boundaries are
	// unknowable statically and per-offset decoding is the only scheme
	// that never desynchronizes. Offsets that decode to nothing stay
	// size 0 and fault only if fetched.
	code []refCachedInst
}

// Load prepares a binary for execution. The returned refProgram is safe for
// concurrent Run calls: fleet collection loads once and shares it across
// every simulated host.
func refLoad(bin *objfile.Binary) (*refProgram, error) {
	p := &refProgram{bin: bin}
	if len(bin.LSDA)%16 != 0 {
		return nil, fmt.Errorf("sim: LSDA size %d not a multiple of 16", len(bin.LSDA))
	}
	p.lsda = make(map[uint64]uint64, len(bin.LSDA)/16)
	for off := 0; off+16 <= len(bin.LSDA); off += 16 {
		call := binary.LittleEndian.Uint64(bin.LSDA[off:])
		pad := binary.LittleEndian.Uint64(bin.LSDA[off+8:])
		p.lsda[call] = pad
	}
	if bin.Entry < bin.TextBase || bin.Entry >= bin.TextEnd() {
		return nil, fmt.Errorf("sim: entry %#x outside text", bin.Entry)
	}
	p.code = make([]refCachedInst, len(bin.Text))
	for off := range bin.Text {
		inst, size, err := isa.Decode(bin.Text, off)
		if err != nil {
			continue // not an instruction start; faults if ever fetched
		}
		p.code[off] = refCachedInst{
			imm:  inst.Imm,
			op:   inst.Op,
			a:    inst.A,
			b:    inst.B,
			size: uint8(size),
		}
	}
	return p, nil
}

type refFrame struct {
	retAddr  uint64
	spBefore uint64
	fpAtCall int64 // refFrame pointer to restore when unwinding into this refFrame
}

// Run executes the program with the given configuration. Runs are
// independent: concurrent Run calls on one refProgram do not share state.
func (p *refProgram) Run(cfg Config) (*Result, error) {
	maxInsts := cfg.MaxInsts
	if maxInsts == 0 {
		maxInsts = 500_000_000
	}
	stackSize := cfg.StackSize
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	bin := p.bin

	var regs [isa.NumRegs]int64
	regs[isa.RegArg0] = cfg.Args[0]
	regs[isa.RegArg1] = cfg.Args[1]
	regs[isa.RegArg2] = cfg.Args[2]
	regs[isa.RegArg3] = cfg.Args[3]
	regs[isa.RegSP] = int64(StackTop)
	var flags int64

	stackBase := StackTop - stackSize
	stack := make([]byte, stackSize)
	data := make([]byte, int64(len(bin.Data))+bin.BSSSize)
	copy(data, bin.Data)

	var u *refUarch
	if !cfg.DisableUarch {
		u = refNewUarch(bin.HugePages)
	}
	res := &Result{}
	if cfg.TrackLoadMisses {
		res.LoadMisses = map[uint64]uint64{}
	}
	var lbr refLBRRing
	var arena sampleArena
	var streamBuf [profile.LBRDepth]profile.Branch
	streaming := cfg.OnSample != nil
	if cfg.LBRPeriod > 0 && !streaming {
		res.Profile = &profile.Profile{Period: cfg.LBRPeriod, BuildID: bin.BuildID}
	}

	var callStack []refFrame

	finish := func() {
		if u != nil {
			res.Cycles = u.cycles
		} else {
			res.Cycles = res.Insts
		}
		if cfg.KeepMemory {
			res.DataImage = data
		}
	}
	fault := func(pc uint64, format string, args ...any) error {
		finish() // record cycles and memory on every exit path
		return &RunError{PC: pc, Inst: res.Insts, Msg: fmt.Sprintf(format, args...)}
	}

	load64 := func(pc, addr uint64) (int64, error) {
		switch {
		case addr >= stackBase && addr+8 <= StackTop:
			return int64(binary.LittleEndian.Uint64(stack[addr-stackBase:])), nil
		case addr >= bin.DataBase && addr+8 <= bin.DataBase+uint64(len(data)):
			return int64(binary.LittleEndian.Uint64(data[addr-bin.DataBase:])), nil
		case addr >= bin.RodataBase && addr+8 <= bin.RodataBase+uint64(len(bin.Rodata)):
			return int64(binary.LittleEndian.Uint64(bin.Rodata[addr-bin.RodataBase:])), nil
		case addr >= bin.TextBase && addr+8 <= bin.TextEnd():
			// Jump tables may live inside text (data-in-code).
			return int64(binary.LittleEndian.Uint64(bin.Text[addr-bin.TextBase:])), nil
		}
		return 0, fault(pc, "load from unmapped address %#x", addr)
	}
	store64 := func(pc, addr uint64, v int64) error {
		switch {
		case addr >= stackBase && addr+8 <= StackTop:
			binary.LittleEndian.PutUint64(stack[addr-stackBase:], uint64(v))
			return nil
		case addr >= bin.DataBase && addr+8 <= bin.DataBase+uint64(len(data)):
			binary.LittleEndian.PutUint64(data[addr-bin.DataBase:], uint64(v))
			return nil
		}
		return fault(pc, "store to unmapped or read-only address %#x", addr)
	}

	pc := bin.Entry
	textBase := bin.TextBase
	textEnd := bin.TextEnd()
	code := p.code

	for res.Insts < maxInsts {
		if pc < textBase || pc >= textEnd {
			return res, fault(pc, "instruction fetch outside text segment")
		}
		ci := code[pc-textBase]
		if ci.size == 0 {
			// Re-decode for the error detail: the table only records that
			// nothing decodes here.
			_, _, err := isa.Decode(bin.Text, int(pc-textBase))
			return res, fault(pc, "instruction decode failed: %v", err)
		}
		if u != nil {
			u.fetch(&res.Counters, pc, int(ci.size))
		}
		if cfg.Heatmap != nil {
			cfg.Heatmap.Touch(pc, res.Insts)
		}
		res.Insts++
		nextPC := pc + uint64(ci.size)
		in := isa.Inst{Op: ci.op, A: ci.a, B: ci.b, Imm: ci.imm}

		taken := false
		var target uint64
		indirect := false
		isCall := false
		isRet := false

		switch in.Op {
		case isa.OpNop:
		case isa.OpHalt:
			res.Exit = regs[isa.RegRet]
			finish()
			return res, nil
		case isa.OpMovRR:
			regs[in.A] = regs[in.B]
		case isa.OpMovI, isa.OpMovI64:
			regs[in.A] = in.Imm
		case isa.OpAdd:
			regs[in.A] += regs[in.B]
		case isa.OpSub:
			regs[in.A] -= regs[in.B]
		case isa.OpMul:
			regs[in.A] *= regs[in.B]
		case isa.OpDiv:
			if regs[in.B] == 0 {
				return res, fault(pc, "division by zero")
			}
			regs[in.A] /= regs[in.B]
		case isa.OpMod:
			if regs[in.B] == 0 {
				return res, fault(pc, "modulo by zero")
			}
			regs[in.A] %= regs[in.B]
		case isa.OpAnd:
			regs[in.A] &= regs[in.B]
		case isa.OpOr:
			regs[in.A] |= regs[in.B]
		case isa.OpXor:
			regs[in.A] ^= regs[in.B]
		case isa.OpShl:
			regs[in.A] <<= uint64(regs[in.B]) & 63
		case isa.OpShr:
			regs[in.A] = int64(uint64(regs[in.A]) >> (uint64(regs[in.B]) & 63))
		case isa.OpAddI:
			regs[in.A] += in.Imm
		case isa.OpCmp:
			flags = refSign(regs[in.A] - regs[in.B])
		case isa.OpCmpI:
			flags = refSign(regs[in.A] - in.Imm)
		case isa.OpLoad:
			addr := uint64(regs[in.A] + in.Imm)
			v, err := load64(pc, addr)
			if err != nil {
				return res, err
			}
			regs[in.B] = v
			if u != nil && u.dataAccess(&res.Counters, addr, true) && cfg.TrackLoadMisses {
				res.LoadMisses[pc]++
			}
		case isa.OpStore:
			addr := uint64(regs[in.A] + in.Imm)
			if err := store64(pc, addr, regs[in.B]); err != nil {
				return res, err
			}
			if u != nil {
				u.dataAccess(&res.Counters, addr, false)
			}
		case isa.OpPrefetch:
			if u != nil {
				u.prefetch(&res.Counters, uint64(regs[in.A]+in.Imm))
			}
		case isa.OpPush:
			regs[isa.RegSP] -= 8
			if uint64(regs[isa.RegSP]) < stackBase {
				return res, fault(pc, "stack overflow")
			}
			if err := store64(pc, uint64(regs[isa.RegSP]), regs[in.A]); err != nil {
				return res, err
			}
		case isa.OpPop:
			v, err := load64(pc, uint64(regs[isa.RegSP]))
			if err != nil {
				return res, err
			}
			regs[in.A] = v
			regs[isa.RegSP] += 8
		case isa.OpJmp, isa.OpJmpS:
			taken = true
			target = uint64(int64(nextPC) + in.Imm)
		case isa.OpJmpR:
			taken = true
			indirect = true
			target = uint64(regs[in.A])
		case isa.OpCall:
			taken = true
			isCall = true
			target = uint64(int64(nextPC) + in.Imm)
			regs[isa.RegSP] -= 8
			if uint64(regs[isa.RegSP]) < stackBase {
				return res, fault(pc, "stack overflow")
			}
			if err := store64(pc, uint64(regs[isa.RegSP]), int64(nextPC)); err != nil {
				return res, err
			}
			callStack = append(callStack, refFrame{retAddr: nextPC, spBefore: uint64(regs[isa.RegSP]) + 8, fpAtCall: regs[isa.RegFP]})
		case isa.OpCallR:
			taken = true
			isCall = true
			indirect = true
			target = uint64(regs[in.A])
			regs[isa.RegSP] -= 8
			if uint64(regs[isa.RegSP]) < stackBase {
				return res, fault(pc, "stack overflow")
			}
			if err := store64(pc, uint64(regs[isa.RegSP]), int64(nextPC)); err != nil {
				return res, err
			}
			callStack = append(callStack, refFrame{retAddr: nextPC, spBefore: uint64(regs[isa.RegSP]) + 8, fpAtCall: regs[isa.RegFP]})
		case isa.OpRet:
			if len(callStack) == 0 {
				// Returning from the entry function ends the program.
				res.Exit = regs[isa.RegRet]
				finish()
				return res, nil
			}
			v, err := load64(pc, uint64(regs[isa.RegSP]))
			if err != nil {
				return res, err
			}
			regs[isa.RegSP] += 8
			callStack = callStack[:len(callStack)-1]
			taken = true
			isRet = true
			target = uint64(v)
		case isa.OpThrow:
			pad, fr, fp, depth, ok := p.unwind(callStack)
			if !ok {
				return res, fault(pc, "uncaught exception")
			}
			callStack = callStack[:depth]
			regs[isa.RegSP] = int64(fr)
			// The CFI of §4.4 exists so the unwinder can restore the
			// callee-saved refFrame pointer of the landing refFrame; the
			// simulator applies that restoration directly.
			regs[isa.RegFP] = fp
			taken = true
			indirect = true
			target = pad
		default:
			if in.Op >= isa.OpJeq && in.Op <= isa.OpJgeS {
				cond := in.Op.BranchCond()
				if cond.Holds(flags) {
					taken = true
					target = uint64(int64(nextPC) + in.Imm)
				} else if u != nil {
					u.condNotTaken(&res.Counters, pc)
				}
			} else {
				return res, fault(pc, "unimplemented opcode %v", in.Op)
			}
		}

		if taken {
			if u != nil {
				switch {
				case isCall:
					u.call(&res.Counters, pc, target, nextPC, indirect)
				case isRet:
					u.ret(&res.Counters, target)
				default:
					u.takenBranch(&res.Counters, pc, target, indirect, in.Op.IsCondBranch())
				}
			}
			lbr.push(pc, target)
			nextPC = target
		}

		if cfg.LBRPeriod > 0 && (res.Insts+cfg.LBRPhase)%cfg.LBRPeriod == 0 {
			n := lbr.count()
			if streaming {
				// One reused buffer: the callback owns the records only for
				// the duration of the call, so sampling allocates nothing.
				recs := streamBuf[:n]
				lbr.snapshotInto(recs)
				if err := cfg.OnSample(profile.Sample{Records: recs}); err != nil {
					finish()
					return res, err
				}
			} else {
				// Arena-backed materialization: samples are subslices of
				// large flat blocks, zero allocations per sample once a
				// block is warm.
				recs := arena.alloc(n)
				lbr.snapshotInto(recs)
				res.Profile.Samples = append(res.Profile.Samples, profile.Sample{Records: recs})
			}
		}
		pc = nextPC
	}
	return res, fault(pc, "instruction budget of %d exhausted", maxInsts)
}

// unwind walks the shadow call stack outward looking for a call site with a
// landing pad. It returns the pad address, the SP and FP to restore (the
// register state of the refFrame that owns the landing pad), and the new
// stack depth.
func (p *refProgram) unwind(callStack []refFrame) (pad, sp uint64, fp int64, depth int, ok bool) {
	for i := len(callStack) - 1; i >= 0; i-- {
		fr := callStack[i]
		if lp, found := p.lsda[fr.retAddr]; found {
			return lp, fr.spBefore, fr.fpAtCall, i, true
		}
	}
	return 0, 0, 0, 0, false
}

func refSign(v int64) int64 {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// refLBRRing is the 32-deep last branch record buffer.
type refLBRRing struct {
	buf  [profile.LBRDepth]profile.Branch
	pos  int
	full bool
}

func (l *refLBRRing) push(from, to uint64) {
	l.buf[l.pos] = profile.Branch{From: from, To: to}
	l.pos++
	if l.pos == len(l.buf) {
		l.pos = 0
		l.full = true
	}
}

// count reports how many records a snapshot would hold.
func (l *refLBRRing) count() int {
	if l.full {
		return len(l.buf)
	}
	return l.pos
}

// snapshotInto copies the ring contents oldest-first into dst, which must
// hold count() records.
func (l *refLBRRing) snapshotInto(dst []profile.Branch) {
	if l.full {
		n := copy(dst, l.buf[l.pos:])
		copy(dst[n:], l.buf[:l.pos])
	} else {
		copy(dst, l.buf[:l.pos])
	}
}

// set-associative cache with move-to-front pseudo-LRU inside each set.
type refCache struct {
	sets [][]uint64
	ways int
}

func refNewCache(nsets, ways int) *refCache {
	c := &refCache{sets: make([][]uint64, nsets), ways: ways}
	backing := make([]uint64, nsets*ways)
	for i := range backing {
		backing[i] = ^uint64(0)
	}
	for i := range c.sets {
		c.sets[i] = backing[i*ways : (i+1)*ways]
	}
	return c
}

// access returns true on hit; on miss the tag is inserted.
func (c *refCache) access(key uint64) bool {
	set := c.sets[key%uint64(len(c.sets))]
	for i, tag := range set {
		if tag == key {
			// Move to front.
			copy(set[1:i+1], set[:i])
			set[0] = key
			return true
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = key
	return false
}

type refUarch struct {
	l1i  *refCache
	l1d  *refCache
	l2   *refCache
	itlb *refCache
	stlb *refCache

	btbTag    []uint64
	btbTarget []uint64
	gshare    []uint8
	ghist     uint64
	dsb       []uint64

	hugePages bool
	pageBits  uint

	// rsb is the return stack buffer: calls push their return address,
	// returns predict by popping. 16 entries, wrapping like hardware.
	rsb    [16]uint64
	rsbTop int

	lastLine   uint64
	lastWindow uint64

	cycles uint64
}

func refNewUarch(hugePages bool) *refUarch {
	u := &refUarch{
		l1i:        refNewCache(l1iSets, l1iWays),
		l1d:        refNewCache(l1dSets, l1dWays),
		l2:         refNewCache(l2Sets, l2Ways),
		stlb:       refNewCache(stlbSets, stlbWays),
		btbTag:     make([]uint64, btbEntries),
		btbTarget:  make([]uint64, btbEntries),
		gshare:     make([]uint8, gshareEntries),
		dsb:        make([]uint64, dsbEntries),
		hugePages:  hugePages,
		pageBits:   12,
		lastLine:   ^uint64(0),
		lastWindow: ^uint64(0),
	}
	if hugePages {
		u.pageBits = 21
		u.itlb = refNewCache(1, itlb2mWays)
	} else {
		u.itlb = refNewCache(itlb4kSets, itlb4kWays)
	}
	for i := range u.btbTag {
		u.btbTag[i] = ^uint64(0)
	}
	for i := range u.dsb {
		u.dsb[i] = ^uint64(0)
	}
	return u
}

// fetch models the frontend cost of fetching one instruction.
func (u *refUarch) fetch(c *Counters, pc uint64, size int) {
	u.cycles++ // base cost
	lineStart := pc >> lineBits
	lineEnd := (pc + uint64(size) - 1) >> lineBits
	for line := lineStart; line <= lineEnd; line++ {
		if line == u.lastLine {
			continue
		}
		u.lastLine = line
		// iTLB on new-line fetches (tag lookups happen per 64B fetch).
		page := (line << lineBits) >> u.pageBits
		if !u.itlb.access(page) {
			c.ITLBMiss++
			if !u.stlb.access(page) {
				c.STLBMiss++
				u.cycles += penPageWalk
				c.FetchStalls += penPageWalk
			} else {
				u.cycles += penITLBMiss
				c.FetchStalls += penITLBMiss
			}
		}
		if !u.l1i.access(line) {
			c.L1IMiss++
			if !u.l2.access(line) {
				c.L2CodeMiss++
				u.cycles += penL2Miss
				c.FetchStalls += penL2Miss
			} else {
				u.cycles += penL1iMiss
				c.FetchStalls += penL1iMiss
			}
		}
	}
	window := pc >> dsbWindowBits
	if window != u.lastWindow {
		u.lastWindow = window
		slot := window % uint64(len(u.dsb))
		if u.dsb[slot] != window {
			u.dsb[slot] = window
			c.DSBMiss++
			u.cycles += penDSBMiss
		}
	}
}

// dataAccess models one load or store; it returns true on an L1d miss so
// the caller can attribute the miss to the instruction (§3.5's refCache miss
// profiles).
func (u *refUarch) dataAccess(c *Counters, addr uint64, isLoad bool) bool {
	line := addr >> lineBits
	hit := u.l1d.access(line)
	if isLoad {
		c.Loads++
	}
	if !hit {
		c.L1DMiss++
		u.cycles += penL1dMiss
		return true
	}
	return false
}

// prefetch warms the L1d without stalling (software prefetch hint).
func (u *refUarch) prefetch(c *Counters, addr uint64) {
	c.Prefetches++
	u.l1d.access(addr >> lineBits)
}

// call records a call's return address in the RSB and models the taken
// transfer.
func (u *refUarch) call(c *Counters, pc, target, retAddr uint64, indirect bool) {
	u.rsb[u.rsbTop&15] = retAddr
	u.rsbTop++
	u.takenBranch(c, pc, target, indirect, false)
}

// ret models a return: predicted through the RSB, not the BTB.
func (u *refUarch) ret(c *Counters, target uint64) {
	c.TakenBranch++
	var predicted uint64
	if u.rsbTop > 0 {
		u.rsbTop--
		predicted = u.rsb[u.rsbTop&15]
	}
	if predicted != target {
		c.Mispredicts++
		u.cycles += penMispredict
	}
	u.lastWindow = ^uint64(0)
	u.lastLine = ^uint64(0)
}

// takenBranch models a taken control transfer.
func (u *refUarch) takenBranch(c *Counters, pc, target uint64, indirect, conditional bool) {
	c.TakenBranch++
	slot := pc % btbEntries
	if u.btbTag[slot] != pc {
		// Unknown to the BTB: the front end resteers.
		c.Baclears++
		u.cycles += penBaclear
		c.FetchStalls += penBaclear
		u.btbTag[slot] = pc
		u.btbTarget[slot] = target
	} else if indirect && u.btbTarget[slot] != target {
		c.Mispredicts++
		u.cycles += penMispredict
		u.btbTarget[slot] = target
	}
	if conditional {
		c.CondBranches++
		if !u.predictCorrect(pc, true) {
			c.Mispredicts++
			u.cycles += penMispredict
		}
	}
	// Taken branches break the fetch window.
	u.lastWindow = ^uint64(0)
	u.lastLine = ^uint64(0)
}

// condNotTaken models a conditional branch that fell through.
func (u *refUarch) condNotTaken(c *Counters, pc uint64) {
	c.CondBranches++
	c.NotTakenBr++
	if !u.predictCorrect(pc, false) {
		c.Mispredicts++
		u.cycles += penMispredict
	}
}

// predictCorrect consults and updates the gshare direction predictor; it
// reports whether the pre-update prediction matched the actual outcome.
func (u *refUarch) predictCorrect(pc uint64, actual bool) bool {
	idx := (pc ^ u.ghist) % gshareEntries
	ctr := u.gshare[idx]
	predicted := ctr >= 2
	if actual {
		if ctr < 3 {
			u.gshare[idx] = ctr + 1
		}
		u.ghist = u.ghist<<1 | 1
	} else {
		if ctr > 0 {
			u.gshare[idx] = ctr - 1
		}
		u.ghist = u.ghist << 1
	}
	return predicted == actual
}

// ReferenceLoad eagerly decodes bin the old way and returns the old
// interpreter's Run for it; the differential tests (package sim_test, so
// they can also build workload binaries) call the oracle through it.
func ReferenceLoad(bin *objfile.Binary) (func(Config) (*Result, error), error) {
	p, err := refLoad(bin)
	if err != nil {
		return nil, err
	}
	return p.Run, nil
}
