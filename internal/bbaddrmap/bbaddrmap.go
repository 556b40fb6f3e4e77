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

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"propeller/internal/wire"
)

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
	return wire.Encode("", func(w *wire.Writer) {
		w.Int(len(m.Funcs))
		for i := range m.Funcs {
			writeFunc(w, &m.Funcs[i])
		}
	})
}

// AppendFunc appends to dst the encoding of a map holding the one function
// f, as Encode would write it: the backend's per-fragment section.
func AppendFunc(dst []byte, f *FuncEntry) []byte {
	w := wire.Writer{Buf: dst}
	w.Int(1)
	writeFunc(&w, f)
	return w.Buf
}

func writeFunc(w *wire.Writer, f *FuncEntry) {
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

// Smallest encodings of one function (empty name, address, block count)
// and one block (ID, offset, size, flags).
const (
	minFuncBytes  = 3
	minBlockBytes = 4
)

// Decode parses a section previously produced by Encode. The section has
// no magic: it is embedded in objects and executables that carry their own.
// The functions are one slice, their block lists runs of shared chunks
// (capacity-clamped, so appending to one reallocates it), each bounded by
// what the remaining input could hold, and their names substrings of one
// string, copied once from the input after it has been read.
func Decode(data []byte) (*Map, error) {
	r := wire.NewReader("bbaddrmap", "", data)
	m := &Map{Funcs: wire.Take[FuncEntry](r, r.Count(), minFuncBytes)}
	blocks := wire.Pool[BlockEntry]{Chunk: 4096, MinBytes: minBlockBytes}
	views := nameViews.Get().(*[][]byte)
	size := 0
	for i := range m.Funcs {
		f := &m.Funcs[i]
		name := r.View()
		*views = append(*views, name)
		size += len(name)
		f.Addr = r.U64()
		f.Blocks = blocks.Take(r, r.Count())
		for j := range f.Blocks {
			f.Blocks[j] = BlockEntry{ID: r.Int(), Offset: r.U64(), Size: r.U64(), Flags: BlockFlags(r.Byte())}
		}
	}
	err := r.Done()
	if err == nil {
		// Grown to the names' exact size, the builder's buffer never moves,
		// so each name stays a substring of its one allocation.
		var names strings.Builder
		names.Grow(size)
		for i, v := range *views {
			start := names.Len()
			names.Write(v)
			m.Funcs[i].Name = names.String()[start:]
		}
	}
	clear(*views) // the pooled scratch must not pin the input
	*views = (*views)[:0]
	nameViews.Put(views)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// nameViews recycles Decode's scratch: each function's name as a view of
// the input, held until the sum of their lengths is known.
var nameViews = sync.Pool{New: func() any { return new([][]byte) }}

// Fragment is one encoded map, an object's address map section, and where
// its functions land in a spliced map.
type Fragment struct {
	Name string // prefixes the errors the fragment's bytes cause
	Data []byte // what Decode would read
	Base uint64 // added to every function's address
	Trim uint64 // cut from each function's last block, which never goes below zero
}

// Splice returns the encoding of one map holding, in order, the functions
// of every fragment frags hands to yield, each moved and trimmed as its
// Fragment says — the bytes Encode writes for the fragments decoded,
// rebased, trimmed and concatenated — or nil when they hold no function. It
// decodes nothing: each fragment's functions are read and written straight
// into the output. A fragment is checked exactly as Decode checks its
// input; yield rejects one Decode rejects with Decode's error prefixed by
// the fragment's name, and frags is to stop at the first error and return
// it (its own, or yield's), which Splice returns as it is. Beside the
// result, Splice allocates a constant few objects whatever the input.
func Splice(frags func(yield func(Fragment) error) error) ([]byte, error) {
	var err error
	n := 0
	out := wire.Encode("", func(w *wire.Writer) {
		err = frags(func(f Fragment) error {
			k, err := splice(w, &f)
			if err != nil {
				return fmt.Errorf("%s: %w", f.Name, err)
			}
			n += k
			return nil
		})
		if err != nil {
			return
		}
		// The function count leads the encoding but is known only now:
		// append it, then rotate it to the front.
		body := len(w.Buf)
		w.Int(n)
		var head [wire.MaxVarintLen64]byte
		k := copy(head[:], w.Buf[body:])
		copy(w.Buf[k:], w.Buf[:body])
		copy(w.Buf, head[:k])
	})
	if err != nil || n == 0 {
		return nil, err
	}
	return out, nil
}

// splice writes f's functions to w, making Decode's reads and checks in
// Decode's order, and returns how many it wrote.
func splice(w *wire.Writer, f *Fragment) (int, error) {
	r := wire.NewReader("bbaddrmap", "", f.Data)
	n := r.Count()
	if !r.Holds(n, minFuncBytes) {
		return 0, r.Err()
	}
	for range n {
		w.Bytes(r.View())
		w.U64(r.U64() + f.Base)
		blocks := r.Count()
		if !r.Holds(blocks, minBlockBytes) {
			return 0, r.Err()
		}
		w.Int(blocks)
		for j := range blocks {
			id, off, size, flags := r.Int(), r.U64(), r.U64(), r.Byte()
			if j == blocks-1 {
				size -= min(size, f.Trim)
			}
			w.Int(id)
			w.U64(off)
			w.U64(size)
			w.Byte(flags)
		}
	}
	if err := r.Done(); err != nil {
		return 0, err
	}
	return n, nil
}

// Lookup is an address→block index built from a Map, used by Phase 3 to
// resolve LBR sample addresses to blocks. It numbers the binary densely:
// every block is a row of one flat table and is named by its int32 row
// index, every distinct function name by an int32 index into FuncNames, so
// the per-record consumers count into slices and compare integers; names
// and stable block IDs are read back from the table only when a result
// leaves the address space of this binary.
//
// Rows are grouped by fragment (one FuncEntry), fragments sorted by start
// address and each fragment's rows by block start, so for a linked binary —
// whose fragments do not overlap — the whole table is in address order.
type Lookup struct {
	frags  []fragment // sorted by start; ties keep map order
	blocks []Block
	names  []string // distinct function names in order of first appearance
}

// fragment is one FuncEntry's address range and its run of table rows.
type fragment struct {
	start, end uint64
	lo, hi     int32 // blocks[lo:hi], sorted by Start
	entry      *FuncEntry
}

// Block is one row of a Lookup's block table.
type Block struct {
	Start, End uint64 // the block's bytes are [Start, End)
	ID         int    // stable IR block ID
	Fn         int32  // index of the owning function's name in FuncNames
	// Entry marks a block carrying its function's entry-block ID: that of
	// the first block of the first fragment the map lists under the name
	// (the primary fragment).
	Entry bool
}

// NoBlock is the row index the index-form queries return for "no block".
const NoBlock int32 = -1

// NewLookup builds an address index over the map. Functions and blocks with
// zero size are still indexed (as empty ranges that never match). The map
// must hold fewer than 2^31 blocks.
func NewLookup(m *Map) *Lookup {
	total := 0
	for i := range m.Funcs {
		total += len(m.Funcs[i].Blocks)
	}
	l := &Lookup{
		frags:  make([]fragment, len(m.Funcs)),
		blocks: make([]Block, 0, total),
		names:  make([]string, 0, len(m.Funcs)),
	}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		end := f.Addr
		for _, b := range f.Blocks {
			end = max(end, f.Addr+b.Offset+b.Size)
		}
		l.frags[i] = fragment{start: f.Addr, end: end, entry: f}
	}
	// Stable, so fragments starting at one address stay in map order.
	slices.SortStableFunc(l.frags, func(a, b fragment) int { return cmp.Compare(a.start, b.start) })

	fnOf := make(map[string]int32, len(m.Funcs))
	// By function index; -1 when the primary fragment is empty.
	entryID := make([]int, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		if _, seen := fnOf[f.Name]; seen {
			continue
		}
		fnOf[f.Name] = int32(len(l.names))
		l.names = append(l.names, f.Name)
		id := -1
		if len(f.Blocks) > 0 {
			id = f.Blocks[0].ID
		}
		entryID = append(entryID, id)
	}
	for i := range l.frags {
		f := &l.frags[i]
		fn := fnOf[f.entry.Name]
		f.lo = int32(len(l.blocks))
		for _, b := range f.entry.Blocks {
			start := f.start + b.Offset
			l.blocks = append(l.blocks, Block{Start: start, End: start + b.Size, ID: b.ID, Fn: fn, Entry: b.ID == entryID[fn]})
		}
		f.hi = int32(len(l.blocks))
		slices.SortStableFunc(l.blocks[f.lo:f.hi], func(a, b Block) int { return cmp.Compare(a.Start, b.Start) })
	}
	return l
}

// Blocks returns the block table, shared and read-only: row i is the block
// every index-form query names i.
func (l *Lookup) Blocks() []Block { return l.blocks }

// FuncNames returns the distinct function names, shared and read-only,
// indexed by Block.Fn.
func (l *Lookup) FuncNames() []string { return l.names }

// fragScan is how many fragments an address query examines, counting down
// from the last one starting at or before the address. Fragments of a
// linked binary are disjoint, so the nearest non-empty one decides; the
// window admits the empty fragments and the few overlapping ones a split
// section can put between.
const fragScan = 8

// fragAfter returns the index of the first fragment starting after addr
// (possibly len(frags)): the one binary search every address query starts
// from.
func (l *Lookup) fragAfter(addr uint64) int {
	lo, hi := 0, len(l.frags)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.frags[mid].start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prevFrag continues the scan for fragments whose range contains addr:
// it returns the nearest one below index i inside the fragScan window under
// top = fragAfter(addr), or -1 when the window is exhausted.
func (l *Lookup) prevFrag(addr uint64, i, top int) int {
	for i--; i >= 0 && i >= top-fragScan; i-- {
		if addr < l.frags[i].end {
			return i
		}
	}
	return -1
}

// blockCovering binary-searches blocks (sorted by Start) for the one
// covering addr, returning its index or -1. Zero-size blocks never cover
// anything and are skipped; non-empty blocks are disjoint, so the last
// block starting at or before addr is the only candidate.
func blockCovering(bs []Block, addr uint64) int {
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
func firstBlockFrom(bs []Block, start uint64) int {
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

// BlockAt returns the row of the block whose bytes cover addr, or NoBlock.
func (l *Lookup) BlockAt(addr uint64) int32 {
	top := l.fragAfter(addr)
	for i := l.prevFrag(addr, top, top); i >= 0; i = l.prevFrag(addr, i, top) {
		f := &l.frags[i]
		if bi := blockCovering(l.blocks[f.lo:f.hi], addr); bi >= 0 {
			return f.lo + int32(bi)
		}
	}
	return NoBlock
}

// BlockStarting returns the row of the block whose first byte is addr, or
// NoBlock. Branch targets always land on block starts; return addresses
// usually do not — Phase 3 uses this to tell intra-function branch edges
// apart from returns.
func (l *Lookup) BlockStarting(addr uint64) int32 {
	top := l.fragAfter(addr)
	for i := l.prevFrag(addr, top, top); i >= 0; i = l.prevFrag(addr, i, top) {
		f := &l.frags[i]
		run := l.blocks[f.lo:f.hi]
		if bi := firstBlockFrom(run, addr); bi < len(run) && run[bi].Start == addr {
			return f.lo + int32(bi)
		}
	}
	return NoBlock
}

// AppendBlocksIn appends to dst, in address order, the row of every block
// whose start address lies in [start, end]. Phase 3 walks the range between
// consecutive LBR records with this to credit fall-through execution.
func (l *Lookup) AppendBlocksIn(dst []int32, start, end uint64) []int32 {
	if end < start {
		return dst
	}
	// From the last fragment starting at or before start, walk forward
	// until fragments begin past the range end.
	for i := max(l.fragAfter(start)-1, 0); i < len(l.frags); i++ {
		f := &l.frags[i]
		if f.start > end {
			break
		}
		if f.end <= start {
			continue
		}
		for bi := f.lo + int32(firstBlockFrom(l.blocks[f.lo:f.hi], start)); bi < f.hi && l.blocks[bi].Start <= end; bi++ {
			dst = append(dst, bi)
		}
	}
	return dst
}

// Resolver memoizes a Lookup's three hot queries behind small
// direct-mapped caches. Hot-path reconstruction resolves two addresses and
// one fall-through range per LBR record, and FuncSet one address, and the
// record stream revisits the same branch sites constantly (a loop's
// sampled branches repeat for as long as the loop runs), so most binary
// searches are re-deriving an answer the resolver has already produced.
// (Aggregation counts records by address first and resolves each distinct
// key once, so there the memo only catches addresses shared between keys.) A cache hit is one
// multiplicative hash and one compare, and an entry is an address and a
// row index — 16 bytes, 24 for a range — so a table stays within L2.
//
// Results are exactly the underlying Lookup's — the resolver only
// short-circuits recomputation — so swapping it into an aggregation
// pipeline cannot change any resolved block, edge, or count.
//
// A Resolver is NOT safe for concurrent use; each aggregation shard
// owns one (they share the Lookup, which is immutable).
type Resolver struct {
	l     *Lookup
	at    *[1 << resolverBits]addrEnt
	start *[1 << resolverBits]addrEnt
	rng   *[1 << resolverBits]rangeEnt
	arena []int32
}

// resolverBits sizes each direct-mapped cache at 2^resolverBits entries:
// large enough to hold every distinct branch site of the workloads that
// matter, small enough that three caches stay well under a megabyte.
const resolverBits = 12

// arenaMax bounds the range-result arena; when it fills, the arena and
// the range cache are reset together (a var so tests can shrink it).
var arenaMax = 1 << 20

type addrEnt struct {
	addr uint64
	blk  int32
	set  bool
}

type rangeEnt struct {
	start, end uint64
	off        int32
	n1         int32 // row count + 1; 0 marks an empty slot
}

// NewResolver returns a memoizing view over l.
func NewResolver(l *Lookup) *Resolver {
	return &Resolver{
		l:     l,
		at:    new([1 << resolverBits]addrEnt),
		start: new([1 << resolverBits]addrEnt),
		rng:   new([1 << resolverBits]rangeEnt),
	}
}

func mixAddr(addr uint64) uint64 {
	return (addr * 0x9E3779B97F4A7C15) >> (64 - resolverBits)
}

func mixRange(start, end uint64) uint64 {
	return ((start ^ (end<<32 | end>>32)) * 0x9E3779B97F4A7C15) >> (64 - resolverBits)
}

// BlockAt is Lookup.BlockAt behind the memo.
func (r *Resolver) BlockAt(addr uint64) int32 {
	e := &r.at[mixAddr(addr)]
	if !e.set || e.addr != addr {
		*e = addrEnt{addr: addr, blk: r.l.BlockAt(addr), set: true}
	}
	return e.blk
}

// BlockStarting is Lookup.BlockStarting behind the memo.
func (r *Resolver) BlockStarting(addr uint64) int32 {
	e := &r.start[mixAddr(addr)]
	if !e.set || e.addr != addr {
		*e = addrEnt{addr: addr, blk: r.l.BlockStarting(addr), set: true}
	}
	return e.blk
}

// BlocksIn is Lookup.AppendBlocksIn behind the memo. The returned slice
// aliases the resolver's arena and is valid only until the next BlocksIn
// call — exactly the lifetime the record walk needs, and on a hit the
// rows are not even copied.
func (r *Resolver) BlocksIn(start, end uint64) []int32 {
	e := &r.rng[mixRange(start, end)]
	if e.n1 > 0 && e.start == start && e.end == end {
		return r.arena[e.off : e.off+e.n1-1 : e.off+e.n1-1]
	}
	if r.arena == nil {
		// A row per range-cache entry to start with: growing from empty
		// would reallocate a dozen times before the first drain is done.
		r.arena = make([]int32, 0, 1<<resolverBits)
	}
	if len(r.arena) > arenaMax {
		// Entries evicted by collisions leak their arena rows; when the
		// leaks fill the arena, start over (the caches refill in a few
		// thousand records).
		r.arena = r.arena[:0]
		clear(r.rng[:])
	}
	off := len(r.arena)
	r.arena = r.l.AppendBlocksIn(r.arena, start, end)
	*e = rangeEnt{start: start, end: end, off: int32(off), n1: int32(len(r.arena)-off) + 1}
	return r.arena[off:len(r.arena):len(r.arena)]
}

// FuncSet collects the distinct functions a stream of addresses falls in:
// one memoized BlockAt and one flag by function index per address, which
// is what the admission gates need of a profile (how many functions, and
// which, its records touch).
type FuncSet struct {
	r   *Resolver
	hit []bool
	n   int
}

// NewFuncSet returns an empty set over l's functions.
func NewFuncSet(l *Lookup) *FuncSet {
	return &FuncSet{r: NewResolver(l), hit: make([]bool, len(l.names))}
}

// Add marks the function whose block covers addr, if one does.
func (s *FuncSet) Add(addr uint64) {
	if bi := s.r.BlockAt(addr); bi >= 0 {
		if fn := s.r.l.blocks[bi].Fn; !s.hit[fn] {
			s.hit[fn] = true
			s.n++
		}
	}
}

// Len reports how many distinct functions have been marked.
func (s *FuncSet) Len() int { return s.n }

// Names returns the marked functions' names, sorted.
func (s *FuncSet) Names() []string {
	out := make([]string, 0, s.n)
	for fn, hit := range s.hit {
		if hit {
			out = append(out, s.r.l.names[fn])
		}
	}
	sort.Strings(out)
	return out
}
