package sim

// The microarchitecture model: a Skylake-like frontend sized per the
// paper's evaluation platform (§5.5, Table 4 and [23] therein):
//
//	L1i   32 KB, 8-way, 64 B lines
//	L2    1 MB, 16-way, 64 B lines (code reads modeled)
//	iTLB  128×4K entries 4-way, or 8 fully-associative 2M entries when
//	      hugepages are enabled for text (the Search configuration)
//	STLB  1536 entries, 12-way, second level for both page sizes
//	BTB   4096 entries, direct mapped; misses on taken branches are
//	      baclears (front-end resteers, event B1)
//	DSB   decoded uop cache tracked in 32 B windows
//
// Penalties are in cycles and chosen to keep relative effects realistic;
// absolute cycle counts are not calibrated to any silicon.

const (
	l1iSets  = 64 // 32KB / 64B / 8 ways
	l1iWays  = 8
	l2Sets   = 1024 // 1MB / 64B / 16 ways
	l2Ways   = 16
	lineBits = 6

	itlb4kSets = 32 // 128 entries, 4-way
	itlb4kWays = 4
	itlb2mWays = 8   // fully associative
	stlbSets   = 128 // 1536 entries, 12-way
	stlbWays   = 12

	btbEntries    = 4096
	gshareEntries = 16384
	dsbEntries    = 2048
	dsbWindowBits = 5 // 32-byte windows

	l1dSets = 64 // 32KB, 8-way, 64B lines
	l1dWays = 8

	penL1dMiss    = 14 // L1d miss (to L2/memory, flat)
	penL1iMiss    = 8  // L1i miss, L2 hit
	penL2Miss     = 40 // code fetch from memory
	penITLBMiss   = 7  // iTLB miss, STLB hit
	penPageWalk   = 35 // STLB miss
	penBaclear    = 9  // front-end resteer
	penMispredict = 14
	penDSBMiss    = 2 // MITE switch
)

// Counters are the PMU events of Table 4 plus supporting totals.
type Counters struct {
	L1IMiss      uint64 // I1: frontend_retired.l1i_miss
	L2CodeMiss   uint64 // I2: l2_rqsts.code_rd_miss
	FetchStalls  uint64 // I3: cycles stalled on instruction fetch
	ITLBMiss     uint64 // T1: icache_64b.iftag_miss (first-level iTLB miss)
	STLBMiss     uint64 // T2: frontend_retired.itlb_miss (page walks)
	Baclears     uint64 // B1: baclears.any
	TakenBranch  uint64 // B2: br_inst_retired.near_taken
	NotTakenBr   uint64 // conditional branches retired not taken
	Mispredicts  uint64
	DSBMiss      uint64
	CondBranches uint64

	Loads      uint64
	L1DMiss    uint64 // data-side misses (drives §3.5 prefetch insertion)
	Prefetches uint64
}

// access looks key up in one set of a set-associative cache with
// move-to-front pseudo-LRU order; it returns true on a hit and inserts the
// tag on a miss. A hit on the most recent way — the common case for a fetch
// stream that stays in a line and a load stream that stays in a structure —
// leaves the set as it is.
func access(set []uint64, key uint64) bool {
	if set[0] == key {
		return true
	}
	for i := 1; i < len(set); i++ {
		if set[i] == key {
			copy(set[1:i+1], set[:i])
			set[0] = key
			return true
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = key
	return false
}

// uarch is the model state of one run. Every table is a fixed-size array
// indexed by a mask of the key (all set counts are powers of two), so a
// lookup is a shift, a mask and a compare; one allocation holds the lot.
// It accumulates penalty cycles only: each retired instruction also costs
// one base cycle, which Run adds from the instruction count when it ends.
type uarch struct {
	c Counters

	l1i  [l1iSets][l1iWays]uint64
	l1d  [l1dSets][l1dWays]uint64
	l2   [l2Sets][l2Ways]uint64
	stlb [stlbSets][stlbWays]uint64

	// itlb is 32 sets of 4 ways for 4K pages, or its first 8 entries as
	// one fully-associative set for 2M pages.
	itlb     [itlb4kSets * itlb4kWays]uint64
	itlbMask uint64
	itlbWays uint64
	pageBits uint

	btbTag    [btbEntries]uint64
	btbTarget [btbEntries]uint64
	gshare    [gshareEntries]uint8
	ghist     uint64
	dsb       [dsbEntries]uint64

	// rsb is the return stack buffer: calls push their return address,
	// returns predict by popping. 16 entries, wrapping like hardware.
	rsb    [16]uint64
	rsbTop int

	lastLine   uint64
	lastWindow uint64

	cycles uint64
}

func newUarch(hugePages bool) *uarch {
	u := &uarch{
		itlbMask:   itlb4kSets - 1,
		itlbWays:   itlb4kWays,
		pageBits:   12,
		lastLine:   ^uint64(0),
		lastWindow: ^uint64(0),
	}
	if hugePages {
		u.itlbMask, u.itlbWays, u.pageBits = 0, itlb2mWays, 21
	}
	fill := func(tags []uint64) {
		for i := range tags {
			tags[i] = ^uint64(0)
		}
	}
	for i := range u.l1i {
		fill(u.l1i[i][:])
	}
	for i := range u.l1d {
		fill(u.l1d[i][:])
	}
	for i := range u.l2 {
		fill(u.l2[i][:])
	}
	for i := range u.stlb {
		fill(u.stlb[i][:])
	}
	fill(u.itlb[:])
	fill(u.btbTag[:])
	fill(u.dsb[:])
	return u
}

// fetch models the frontend cost of fetching one instruction, and returns
// the end of its 32-byte window. It changes state only for an instruction
// that starts in a new window, runs past the end of its 64-byte line, or
// follows a taken transfer (which resets lastLine and lastWindow); for any
// other instruction it is a no-op, which is what lets model skip the call
// inside a window.
func (u *uarch) fetch(pc, size uint64) uint64 {
	line := pc >> lineBits
	if line != u.lastLine {
		u.fetchLine(line)
	}
	// An instruction is at most 10 bytes: it ends in this line or the next.
	if end := (pc + size - 1) >> lineBits; end != line {
		u.fetchLine(end)
	}
	window := pc >> dsbWindowBits
	if window != u.lastWindow {
		u.lastWindow = window
		slot := window % dsbEntries
		if u.dsb[slot] != window {
			u.dsb[slot] = window
			u.c.DSBMiss++
			u.cycles += penDSBMiss
		}
	}
	return pc | (fetchWindow - 1) + 1
}

// fetchLine models the fetch of a line other than the last one fetched.
func (u *uarch) fetchLine(line uint64) {
	u.lastLine = line
	c := &u.c
	// iTLB on new-line fetches (tag lookups happen per 64B fetch).
	page := (line << lineBits) >> u.pageBits
	if !access(u.itlb[(page&u.itlbMask)*u.itlbWays:][:u.itlbWays], page) {
		c.ITLBMiss++
		if !access(u.stlb[page%stlbSets][:], page) {
			c.STLBMiss++
			u.cycles += penPageWalk
			c.FetchStalls += penPageWalk
		} else {
			u.cycles += penITLBMiss
			c.FetchStalls += penITLBMiss
		}
	}
	if !access(u.l1i[line%l1iSets][:], line) {
		c.L1IMiss++
		if !access(u.l2[line%l2Sets][:], line) {
			c.L2CodeMiss++
			u.cycles += penL2Miss
			c.FetchStalls += penL2Miss
		} else {
			u.cycles += penL1iMiss
			c.FetchStalls += penL1iMiss
		}
	}
}

// dataAccess models one load or store; it returns true on an L1d miss so
// the caller can attribute the miss to the instruction (§3.5's cache miss
// profiles).
func (u *uarch) dataAccess(addr uint64, isLoad bool) bool {
	line := addr >> lineBits
	hit := access(u.l1d[line%l1dSets][:], line)
	if isLoad {
		u.c.Loads++
	}
	if !hit {
		u.c.L1DMiss++
		u.cycles += penL1dMiss
		return true
	}
	return false
}

// prefetch warms the L1d without stalling (software prefetch hint).
func (u *uarch) prefetch(addr uint64) {
	u.c.Prefetches++
	line := addr >> lineBits
	access(u.l1d[line%l1dSets][:], line)
}

// call records a call's return address in the RSB and models the taken
// transfer.
func (u *uarch) call(pc, target, retAddr uint64, indirect bool) {
	u.rsb[u.rsbTop&15] = retAddr
	u.rsbTop++
	u.takenBranch(pc, target, indirect, false)
}

// ret models a return: predicted through the RSB, not the BTB.
func (u *uarch) ret(target uint64) {
	u.c.TakenBranch++
	var predicted uint64
	if u.rsbTop > 0 {
		u.rsbTop--
		predicted = u.rsb[u.rsbTop&15]
	}
	if predicted != target {
		u.c.Mispredicts++
		u.cycles += penMispredict
	}
	u.lastWindow = ^uint64(0)
	u.lastLine = ^uint64(0)
}

// takenBranch models a taken control transfer.
func (u *uarch) takenBranch(pc, target uint64, indirect, conditional bool) {
	c := &u.c
	c.TakenBranch++
	slot := pc % btbEntries
	if u.btbTag[slot] != pc {
		u.baclear(pc, target)
	} else if indirect && u.btbTarget[slot] != target {
		c.Mispredicts++
		u.cycles += penMispredict
		u.btbTarget[slot] = target
	}
	if conditional {
		c.CondBranches++
		u.predict(pc, true)
	}
	u.redirect()
}

// baclear is a taken branch the BTB does not know: the front end resteers,
// and the BTB learns it.
func (u *uarch) baclear(pc, target uint64) {
	c := &u.c
	c.Baclears++
	u.cycles += penBaclear
	c.FetchStalls += penBaclear
	slot := pc % btbEntries
	u.btbTag[slot] = pc
	u.btbTarget[slot] = target
}

// redirect ends the fetch window: the next instruction fetches anew.
func (u *uarch) redirect() {
	u.lastWindow = ^uint64(0)
	u.lastLine = ^uint64(0)
}

// predict consults and updates the gshare direction predictor for a
// conditional branch at pc that went the way taken says, and charges a
// misprediction.
func (u *uarch) predict(pc uint64, taken bool) {
	idx := (pc ^ u.ghist) % gshareEntries
	ctr := u.gshare[idx] & 3
	var right bool
	if taken {
		u.gshare[idx] = satInc[ctr]
		u.ghist = u.ghist<<1 | 1
		right = ctr >= 2
	} else {
		u.gshare[idx] = satDec[ctr]
		u.ghist <<= 1
		right = ctr < 2
	}
	if !right {
		u.c.Mispredicts++
		u.cycles += penMispredict
	}
}

// satInc and satDec step a two-bit saturating counter.
var (
	satInc = [4]uint8{1, 2, 3, 3}
	satDec = [4]uint8{0, 0, 1, 2}
)

// Map returns the Table-4 counter values keyed by the paper's labels.
func (c *Counters) Map() map[string]uint64 {
	return map[string]uint64{
		"I1": c.L1IMiss,
		"I2": c.L2CodeMiss,
		"I3": c.FetchStalls,
		"T1": c.ITLBMiss,
		"T2": c.STLBMiss,
		"B1": c.Baclears,
		"B2": c.TakenBranch,
	}
}
