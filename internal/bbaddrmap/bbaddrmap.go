// Package bbaddrmap implements the Basic Block Address Map, the profile
// mapping metadata of the paper's Phase 2 (§3.2), mirroring LLVM's
// SHT_LLVM_BB_ADDR_MAP section.
//
// For each function the map records, per machine basic block: the stable
// block ID, the offset of the block from the function entry, its size, and
// flags (fall-through successor present, landing pad, has return, has call).
// Phase 3 uses it to map sampled virtual addresses back to machine basic
// blocks without disassembling anything.
package bbaddrmap

import "propeller/internal/wire"

// BlockFlags describe block characteristics stored alongside the offsets.
type BlockFlags byte

const (
	// FlagFallThrough marks blocks whose layout successor is also a CFG
	// successor reached without a taken branch.
	FlagFallThrough BlockFlags = 1 << iota
	// FlagLandingPad marks exception landing pads.
	FlagLandingPad
	// FlagReturn marks blocks ending in a return.
	FlagReturn
	// FlagCall marks blocks containing at least one call.
	FlagCall
)

// BlockEntry describes one machine basic block within a function.
type BlockEntry struct {
	ID     int    // stable IR block ID
	Offset uint64 // offset of the block from the function entry address
	Size   uint64 // size of the block in bytes
	Flags  BlockFlags
}

// FuncEntry is the address-map record for one function.
type FuncEntry struct {
	Name string
	Addr uint64 // function entry address; section-relative in objects,
	// absolute once linked
	Blocks []BlockEntry
}

// Map is the decoded contents of a BB address map section.
type Map struct {
	Funcs []FuncEntry
}

// Encode serializes the map to the section byte format.
func Encode(m *Map) []byte {
	var w wire.Writer
	w.Int(len(m.Funcs))
	for _, f := range m.Funcs {
		w.Str(f.Name)
		w.U64(f.Addr)
		w.Int(len(f.Blocks))
		for _, b := range f.Blocks {
			w.Int(b.ID)
			w.U64(b.Offset)
			w.U64(b.Size)
			w.Byte(byte(b.Flags))
		}
	}
	return w.Buf
}

// Decode parses a section previously produced by Encode. The section has
// no magic: it is embedded in objects and executables that carry their own.
func Decode(data []byte) (*Map, error) {
	r := wire.NewReader("bbaddrmap", "", data)
	m := &Map{}
	for i, nFuncs := 0, r.Count(); i < nFuncs && r.Err() == nil; i++ {
		f := FuncEntry{Name: r.Str(), Addr: r.U64()}
		f.Blocks = make([]BlockEntry, r.Count())
		for j := range f.Blocks {
			f.Blocks[j] = BlockEntry{ID: r.Int(), Offset: r.U64(), Size: r.U64(), Flags: BlockFlags(r.Byte())}
		}
		m.Funcs = append(m.Funcs, f)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Rebase returns a copy of the map with delta added to every function
// address. The linker uses this when placing sections at final addresses.
func (m *Map) Rebase(delta uint64) *Map {
	out := &Map{Funcs: make([]FuncEntry, len(m.Funcs))}
	for i, f := range m.Funcs {
		nf := f
		nf.Addr = f.Addr + delta
		nf.Blocks = append([]BlockEntry(nil), f.Blocks...)
		out.Funcs[i] = nf
	}
	return out
}

// Merge concatenates several maps into one.
func Merge(maps ...*Map) *Map {
	out := &Map{}
	for _, m := range maps {
		out.Funcs = append(out.Funcs, m.Funcs...)
	}
	return out
}

// Lookup is an address→block index built from a Map, used by Phase 3 to
// resolve LBR sample addresses to (function, block ID) pairs.
type Lookup struct {
	funcs []lookupFunc // sorted by Start
}

type lookupFunc struct {
	Start, End uint64
	Entry      *FuncEntry
	blocks     []lookupBlock // sorted by Start
}

type lookupBlock struct {
	Start, End uint64
	ID         int
	Flags      BlockFlags
}

// NewLookup builds an address index over the map. Functions and blocks with
// zero size are still indexed (as empty ranges that never match).
func NewLookup(m *Map) *Lookup {
	l := &Lookup{}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		var end uint64 = f.Addr
		lf := lookupFunc{Start: f.Addr, Entry: f}
		for _, b := range f.Blocks {
			start := f.Addr + b.Offset
			bend := start + b.Size
			if bend > end {
				end = bend
			}
			lf.blocks = append(lf.blocks, lookupBlock{Start: start, End: bend, ID: b.ID, Flags: b.Flags})
		}
		lf.End = end
		l.funcs = append(l.funcs, lf)
	}
	sortFuncs(l.funcs)
	for i := range l.funcs {
		sortBlocks(l.funcs[i].blocks)
	}
	return l
}

func sortFuncs(fs []lookupFunc) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Start < fs[j-1].Start; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

func sortBlocks(bs []lookupBlock) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Start < bs[j-1].Start; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// blockCovering binary-searches blocks (sorted by Start) for the one
// covering addr, returning its index or -1. Zero-size blocks never cover
// anything and are skipped; non-empty blocks are disjoint, so the last
// block starting at or before addr is the only candidate.
func blockCovering(bs []lookupBlock, addr uint64) int {
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bs[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0; i-- {
		b := &bs[i]
		if addr < b.End {
			return i
		}
		if b.Start < b.End {
			// A non-empty block entirely before addr: with disjoint
			// blocks, nothing earlier can reach past it.
			return -1
		}
		// Zero-size block at or before addr: keep walking.
	}
	return -1
}

// firstBlockFrom returns the index of the first block with Start >= start
// (possibly len(bs)).
func firstBlockFrom(bs []lookupBlock, start uint64) int {
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := (lo + hi) / 2
		if bs[mid].Start < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Resolve maps an address to the containing function name and block ID.
// ok is false when the address is not covered by any recorded block.
func (l *Lookup) Resolve(addr uint64) (fn string, blockID int, ok bool) {
	// Binary search the function list for the last Start <= addr.
	lo, hi := 0, len(l.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.funcs[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Blocks of one function can interleave with another function's range
	// only if sections were split; scan backwards over candidates.
	for i := lo - 1; i >= 0; i-- {
		f := &l.funcs[i]
		if addr >= f.End {
			// Functions are sorted by start; earlier ones may still cover
			// addr if this one is short, so keep scanning a little.
			if i < lo-8 {
				break
			}
			continue
		}
		if bi := blockCovering(f.blocks, addr); bi >= 0 {
			return f.Entry.Name, f.blocks[bi].ID, true
		}
	}
	return "", 0, false
}

// ResolveFull is Resolve plus the block's address bounds.
func (l *Lookup) ResolveFull(addr uint64) (ref BlockRef, start, end uint64, ok bool) {
	lo, hi := 0, len(l.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.funcs[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0 && i >= lo-8; i-- {
		f := &l.funcs[i]
		if addr >= f.End {
			continue
		}
		if bi := blockCovering(f.blocks, addr); bi >= 0 {
			b := &f.blocks[bi]
			return BlockRef{Fn: f.Entry.Name, ID: b.ID}, b.Start, b.End, true
		}
	}
	return BlockRef{}, 0, 0, false
}

// BlockRef identifies a block: owning function name and stable block ID.
type BlockRef struct {
	Fn string
	ID int
}

// IsBlockStart reports whether addr is exactly the first byte of a block,
// returning the block. Branch targets always land on block starts; return
// addresses usually do not — Phase 3 uses this to tell intra-function
// branch edges apart from returns.
func (l *Lookup) IsBlockStart(addr uint64) (BlockRef, bool) {
	lo, hi := 0, len(l.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.funcs[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0 && i >= lo-8; i-- {
		f := &l.funcs[i]
		if addr >= f.End {
			continue
		}
		if bi := firstBlockFrom(f.blocks, addr); bi < len(f.blocks) && f.blocks[bi].Start == addr {
			return BlockRef{Fn: f.Entry.Name, ID: f.blocks[bi].ID}, true
		}
	}
	return BlockRef{}, false
}

// BlocksInRange returns, in address order, every block whose start address
// lies in [start, end]. Phase 3 walks the range between consecutive LBR
// records with this to credit fall-through execution.
func (l *Lookup) BlocksInRange(start, end uint64) []BlockRef {
	return l.BlocksInRangeAppend(nil, start, end)
}

// BlocksInRangeAppend is BlocksInRange appending into dst — the
// zero-allocation form the sample-aggregation hot loop calls with a
// reused scratch slice (one fall-through range is resolved per LBR
// record, so a fresh slice per call is the analyzer's top allocation
// site).
func (l *Lookup) BlocksInRangeAppend(dst []BlockRef, start, end uint64) []BlockRef {
	if end < start {
		return dst
	}
	// Fragments are sorted by start; find the first candidate and walk
	// forward until fragments begin past the range end.
	lo, hi := 0, len(l.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.funcs[mid].Start <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo - 1
	if first < 0 {
		first = 0
	}
	for i := first; i < len(l.funcs); i++ {
		f := &l.funcs[i]
		if f.Start > end {
			break
		}
		if f.End <= start {
			continue
		}
		for bi := firstBlockFrom(f.blocks, start); bi < len(f.blocks); bi++ {
			b := &f.blocks[bi]
			if b.Start > end {
				break
			}
			dst = append(dst, BlockRef{Fn: f.Entry.Name, ID: b.ID})
		}
	}
	return dst
}

// Resolver memoizes a Lookup's three hot resolution operations behind
// small direct-mapped caches. Phase 3 resolves two addresses and one
// fall-through range per LBR record, and the record stream revisits the
// same branch sites constantly (a loop's sampled branches repeat for as
// long as the loop runs), so most binary searches are re-deriving an
// answer the resolver has already produced. A cache hit is one
// multiplicative hash and one compare.
//
// Results are exactly the underlying Lookup's — the resolver only
// short-circuits recomputation — so swapping it into an aggregation
// pipeline cannot change any resolved block, edge, or count.
//
// A Resolver is NOT safe for concurrent use; each aggregation shard
// owns one (they share the Lookup, which is immutable).
type Resolver struct {
	l     *Lookup
	full  []resolveFullEnt
	bs    []blockStartEnt
	rng   []rangeEnt
	arena []BlockRef
}

// resolverBits sizes each direct-mapped cache at 2^resolverBits entries:
// large enough to hold every distinct branch site of the workloads that
// matter, small enough that three caches stay well under a megabyte.
const resolverBits = 12

// arenaMax bounds the range-result arena; when it fills, the arena and
// the range cache are reset together (a var so tests can shrink it).
var arenaMax = 1 << 20

type resolveFullEnt struct {
	addr       uint64
	start, end uint64
	ref        BlockRef
	ok         bool
	set        bool
}

type blockStartEnt struct {
	addr uint64
	ref  BlockRef
	ok   bool
	set  bool
}

type rangeEnt struct {
	start, end uint64
	off, n     int32
	set        bool
}

// NewResolver returns a memoizing view over l.
func NewResolver(l *Lookup) *Resolver {
	return &Resolver{
		l:    l,
		full: make([]resolveFullEnt, 1<<resolverBits),
		bs:   make([]blockStartEnt, 1<<resolverBits),
		rng:  make([]rangeEnt, 1<<resolverBits),
	}
}

func mixAddr(addr uint64) uint64 {
	return (addr * 0x9E3779B97F4A7C15) >> (64 - resolverBits)
}

func mixRange(start, end uint64) uint64 {
	return ((start ^ (end<<32 | end>>32)) * 0x9E3779B97F4A7C15) >> (64 - resolverBits)
}

// ResolveFull is Lookup.ResolveFull behind the memo.
func (r *Resolver) ResolveFull(addr uint64) (ref BlockRef, start, end uint64, ok bool) {
	e := &r.full[mixAddr(addr)]
	if e.set && e.addr == addr {
		return e.ref, e.start, e.end, e.ok
	}
	ref, start, end, ok = r.l.ResolveFull(addr)
	*e = resolveFullEnt{addr: addr, start: start, end: end, ref: ref, ok: ok, set: true}
	return ref, start, end, ok
}

// IsBlockStart is Lookup.IsBlockStart behind the memo.
func (r *Resolver) IsBlockStart(addr uint64) (BlockRef, bool) {
	e := &r.bs[mixAddr(addr)]
	if e.set && e.addr == addr {
		return e.ref, e.ok
	}
	ref, ok := r.l.IsBlockStart(addr)
	*e = blockStartEnt{addr: addr, ref: ref, ok: ok, set: true}
	return ref, ok
}

// BlocksInRange is Lookup.BlocksInRange behind the memo. The returned
// slice aliases the resolver's arena and is valid only until the next
// BlocksInRange call — exactly the lifetime the aggregation loop needs,
// and on a hit the refs are not even copied.
func (r *Resolver) BlocksInRange(start, end uint64) []BlockRef {
	e := &r.rng[mixRange(start, end)]
	if e.set && e.start == start && e.end == end {
		return r.arena[e.off : int(e.off)+int(e.n) : int(e.off)+int(e.n)]
	}
	if len(r.arena) > arenaMax {
		// Entries evicted by collisions leak their arena refs; when the
		// leaks fill the arena, start over (the caches refill in a few
		// thousand records).
		r.arena = r.arena[:0]
		for i := range r.rng {
			r.rng[i].set = false
		}
	}
	off := len(r.arena)
	r.arena = r.l.BlocksInRangeAppend(r.arena, start, end)
	*e = rangeEnt{start: start, end: end, off: int32(off), n: int32(len(r.arena) - off), set: true}
	return r.arena[off:len(r.arena):len(r.arena)]
}

// FuncAt returns the function entry covering addr, if any.
func (l *Lookup) FuncAt(addr uint64) (*FuncEntry, bool) {
	lo, hi := 0, len(l.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.funcs[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0 && i >= lo-8; i-- {
		f := &l.funcs[i]
		if addr < f.End {
			return f.Entry, true
		}
	}
	return nil, false
}
