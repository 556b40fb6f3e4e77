package bbaddrmap

import (
	"math/rand"
	"slices"
	"testing"

	"propeller/internal/wire"
)

// refLookup is the Lookup this package had before the dense block table:
// per-fragment block slices, names read through the FuncEntry, and the
// fragment search written out in each of the five queries. It is kept
// verbatim as the oracle the index form is held to. One deliberate
// difference: the old Resolve let its back-scan run past eight fragments
// while the address stayed inside their ranges, the other four stopped at
// eight; the single search routine has the one bound, so Resolve is held
// to ResolveFull here and to the old Resolve only on maps whose fragments
// do not overlap (TestResolveMatchesOldResolveOnDisjointMaps).
type refLookup struct {
	funcs []refFunc // sorted by Start
}

type refFunc struct {
	Start, End uint64
	Entry      *FuncEntry
	blocks     []refBlock // sorted by Start
}

type refBlock struct {
	Start, End uint64
	ID         int
	Flags      BlockFlags
}

func newRefLookup(m *Map) *refLookup {
	l := &refLookup{}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		var end uint64 = f.Addr
		lf := refFunc{Start: f.Addr, Entry: f}
		for _, b := range f.Blocks {
			start := f.Addr + b.Offset
			bend := start + b.Size
			if bend > end {
				end = bend
			}
			lf.blocks = append(lf.blocks, refBlock{Start: start, End: bend, ID: b.ID, Flags: b.Flags})
		}
		lf.End = end
		l.funcs = append(l.funcs, lf)
	}
	fs := l.funcs
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Start < fs[j-1].Start; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
	for k := range l.funcs {
		bs := l.funcs[k].blocks
		for i := 1; i < len(bs); i++ {
			for j := i; j > 0 && bs[j].Start < bs[j-1].Start; j-- {
				bs[j], bs[j-1] = bs[j-1], bs[j]
			}
		}
	}
	return l
}

func refBlockCovering(bs []refBlock, addr uint64) int {
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
			return -1
		}
	}
	return -1
}

func refFirstBlockFrom(bs []refBlock, start uint64) int {
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

func (l *refLookup) Resolve(addr uint64) (fn string, blockID int, ok bool) {
	lo, hi := 0, len(l.funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.funcs[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo - 1; i >= 0; i-- {
		f := &l.funcs[i]
		if addr >= f.End {
			if i < lo-8 {
				break
			}
			continue
		}
		if bi := refBlockCovering(f.blocks, addr); bi >= 0 {
			return f.Entry.Name, f.blocks[bi].ID, true
		}
	}
	return "", 0, false
}

func (l *refLookup) ResolveFull(addr uint64) (ref BlockRef, start, end uint64, ok bool) {
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
		if bi := refBlockCovering(f.blocks, addr); bi >= 0 {
			b := &f.blocks[bi]
			return BlockRef{Fn: f.Entry.Name, ID: b.ID}, b.Start, b.End, true
		}
	}
	return BlockRef{}, 0, 0, false
}

func (l *refLookup) IsBlockStart(addr uint64) (BlockRef, bool) {
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
		if bi := refFirstBlockFrom(f.blocks, addr); bi < len(f.blocks) && f.blocks[bi].Start == addr {
			return BlockRef{Fn: f.Entry.Name, ID: f.blocks[bi].ID}, true
		}
	}
	return BlockRef{}, false
}

func (l *refLookup) BlocksInRange(start, end uint64) []BlockRef {
	var dst []BlockRef
	if end < start {
		return dst
	}
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
		for bi := refFirstBlockFrom(f.blocks, start); bi < len(f.blocks); bi++ {
			b := &f.blocks[bi]
			if b.Start > end {
				break
			}
			dst = append(dst, BlockRef{Fn: f.Entry.Name, ID: b.ID})
		}
	}
	return dst
}

func (l *refLookup) FuncAt(addr uint64) (*FuncEntry, bool) {
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

// hostileMap draws a map no linker would emit, to pin the corner
// semantics: zero-size blocks, several fragments under one name, repeated
// block IDs, fragments that overlap or start at one address (up to a dozen
// deep, past the scan window), functions without blocks, and block offsets
// out of order. With disjoint set, fragments and blocks are laid end to end
// with gaps instead. It returns the map and the addresses worth probing:
// every block's start, last byte and end, and a byte either side of each.
func hostileMap(rng *rand.Rand, disjoint bool) (*Map, []uint64) {
	m := &Map{}
	addr := uint64(0x1000)
	probes := []uint64{0, 1, 0xFFF}
	stack := 0
	for i, nFrag := 0, 1+rng.Intn(24); i < nFrag; i++ {
		fe := FuncEntry{Name: "f" + string(rune('a'+rng.Intn(8))), Addr: addr}
		off := uint64(0)
		for j, nb := 0, rng.Intn(7); j < nb; j++ { // 0 blocks: an empty function
			size := uint64(rng.Intn(24)) // zero-size blocks included
			b := BlockEntry{ID: j, Offset: off, Size: size, Flags: BlockFlags(rng.Intn(16))}
			if !disjoint && rng.Intn(6) == 0 {
				b.ID = rng.Intn(j + 1) // a repeated ID
			}
			fe.Blocks = append(fe.Blocks, b)
			start := addr + off
			probes = append(probes, start-1, start, start+1, start+size-1, start+size, start+size+1)
			off += size
		}
		if !disjoint && len(fe.Blocks) > 1 && rng.Intn(4) == 0 {
			rng.Shuffle(len(fe.Blocks), func(a, b int) { fe.Blocks[a], fe.Blocks[b] = fe.Blocks[b], fe.Blocks[a] })
		}
		m.Funcs = append(m.Funcs, fe)
		if !disjoint && stack == 0 && rng.Intn(8) == 0 {
			// A pile: the next six to twelve fragments all start within
			// this one's first bytes, so an address near its end has more
			// than a scan window of fragments starting below it.
			stack = 6 + rng.Intn(7)
		}
		switch {
		case disjoint:
			addr += off + uint64(rng.Intn(32))
		case stack > 0:
			stack--
			addr += uint64(rng.Intn(3))
		case rng.Intn(3) == 0:
			// The next fragment starts inside (or exactly at the start
			// of) this one.
			addr += uint64(rng.Intn(int(off) + 1))
		default:
			addr += off + uint64(rng.Intn(32))
		}
	}
	if !disjoint && rng.Intn(2) == 0 {
		rng.Shuffle(len(m.Funcs), func(a, b int) { m.Funcs[a], m.Funcs[b] = m.Funcs[b], m.Funcs[a] })
	}
	probes = append(probes, addr, addr+1, addr+64, ^uint64(0))
	return m, probes
}

// TestLookupMatchesReference holds the string-form queries — thin wrappers
// over the dense table — to the old per-fragment implementation on hostile
// maps, at every boundary address and on ranges between them.
func TestLookupMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, probes := hostileMap(rng, false)
		l, ref := NewLookup(m), newRefLookup(m)
		for _, a := range probes {
			wantRef, wantStart, wantEnd, wantOK := ref.ResolveFull(a)
			gotRef, gotStart, gotEnd, gotOK := l.ResolveFull(a)
			if wantRef != gotRef || wantStart != gotStart || wantEnd != gotEnd || wantOK != gotOK {
				t.Fatalf("seed %d: ResolveFull(%#x) = %v %#x %#x %v, want %v %#x %#x %v", seed, a, gotRef, gotStart, gotEnd, gotOK, wantRef, wantStart, wantEnd, wantOK)
			}
			if fn, id, ok := l.Resolve(a); fn != wantRef.Fn || id != wantRef.ID || ok != wantOK {
				t.Fatalf("seed %d: Resolve(%#x) = %q %d %v, want %v %v", seed, a, fn, id, ok, wantRef, wantOK)
			}
			wantBS, wantBSOK := ref.IsBlockStart(a)
			if gotBS, gotBSOK := l.IsBlockStart(a); gotBS != wantBS || gotBSOK != wantBSOK {
				t.Fatalf("seed %d: IsBlockStart(%#x) = %v %v, want %v %v", seed, a, gotBS, gotBSOK, wantBS, wantBSOK)
			}
			wantFE, wantFEOK := ref.FuncAt(a)
			if gotFE, gotFEOK := l.FuncAt(a); gotFE != wantFE || gotFEOK != wantFEOK {
				t.Fatalf("seed %d: FuncAt(%#x) = %p %v, want %p %v", seed, a, gotFE, gotFEOK, wantFE, wantFEOK)
			}
			for k := 0; k < 8; k++ {
				b := probes[rng.Intn(len(probes))]
				if want, got := ref.BlocksInRange(a, b), l.BlocksInRange(a, b); !slices.Equal(want, got) {
					t.Fatalf("seed %d: BlocksInRange(%#x, %#x) = %v, want %v", seed, a, b, got, want)
				}
			}
		}
	}
}

// TestResolveMatchesOldResolveOnDisjointMaps: on maps a linker can emit —
// fragments end to end — the old Resolve's longer back-scan never found
// anything the window misses.
func TestResolveMatchesOldResolveOnDisjointMaps(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		m, probes := hostileMap(rand.New(rand.NewSource(seed)), true)
		l, ref := NewLookup(m), newRefLookup(m)
		for _, a := range probes {
			wantFn, wantID, wantOK := ref.Resolve(a)
			if fn, id, ok := l.Resolve(a); fn != wantFn || id != wantID || ok != wantOK {
				t.Fatalf("seed %d: Resolve(%#x) = %q %d %v, want %q %d %v", seed, a, fn, id, ok, wantFn, wantID, wantOK)
			}
		}
	}
}

// TestBlockTable pins what the rows carry beyond an address range: the
// function index names the fragment's function, one index per distinct
// name, and Entry marks exactly the blocks carrying the ID of the first
// block of the first fragment listed under the name.
func TestBlockTable(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		m, _ := hostileMap(rand.New(rand.NewSource(seed)), false)
		l := NewLookup(m)
		entryID := map[string]int{}
		for _, f := range m.Funcs {
			if _, seen := entryID[f.Name]; !seen {
				entryID[f.Name] = -1
				if len(f.Blocks) > 0 {
					entryID[f.Name] = f.Blocks[0].ID
				}
			}
		}
		names := l.FuncNames()
		if len(names) != len(entryID) {
			t.Fatalf("seed %d: %d function indices for %d distinct names", seed, len(names), len(entryID))
		}
		rows := 0
		for _, f := range m.Funcs {
			rows += len(f.Blocks)
		}
		if len(l.Blocks()) != rows {
			t.Fatalf("seed %d: %d rows for %d blocks", seed, len(l.Blocks()), rows)
		}
		for i, b := range l.Blocks() {
			if want := b.ID == entryID[names[b.Fn]]; b.Entry != want {
				t.Fatalf("seed %d: row %d (%s#%d): Entry = %v, want %v", seed, i, names[b.Fn], b.ID, b.Entry, want)
			}
			if got := l.ref(int32(i)); got != (BlockRef{Fn: names[b.Fn], ID: b.ID}) {
				t.Fatalf("seed %d: ref(%d) = %v", seed, i, got)
			}
		}
	}
}

// TestNewLookupAllocs: the table is a handful of allocations — the three
// slices, and the name map's groups — not a block slice per function.
func TestNewLookupAllocs(t *testing.T) {
	build := func(nf int) *Map {
		m := &Map{}
		for f := 0; f < nf; f++ {
			fe := FuncEntry{Name: "fn" + string(rune('0'+f%10)) + string(rune('a'+f/10%26)) + string(rune('a'+f/260)), Addr: uint64(0x1000 * (f + 1))}
			for b := 0; b < 8; b++ {
				fe.Blocks = append(fe.Blocks, BlockEntry{ID: b, Offset: uint64(16 * b), Size: 16})
			}
			m.Funcs = append(m.Funcs, fe)
		}
		return m
	}
	small, large := build(50), build(5000)
	a := testing.AllocsPerRun(5, func() { NewLookup(small) })
	b := testing.AllocsPerRun(5, func() { NewLookup(large) })
	if a > 12 || b > 40 {
		t.Errorf("NewLookup allocates %.0f times for 50 functions, %.0f for 5000; want at most 12 and 40", a, b)
	}
}

// TestFuncSet: the set marks the function of every covered address once,
// and nothing for an address no block covers.
func TestFuncSet(t *testing.T) {
	s := NewFuncSet(NewLookup(sample()))
	for _, a := range []uint64{0x0FFF, 0x2005, 0x9999} {
		s.Add(a)
	}
	if s.Len() != 0 || len(s.Names()) != 0 {
		t.Fatalf("uncovered addresses marked %v", s.Names())
	}
	for _, a := range []uint64{0x4000, 0x1000, 0x4013, 0x2004, 0x1010} {
		s.Add(a)
	}
	if got := s.Names(); s.Len() != 2 || !slices.Equal(got, []string{"bar", "foo"}) {
		t.Fatalf("Names() = %v, Len() = %d; want [bar foo], 2", got, s.Len())
	}
}

// refDecode is Decode as it was before it read into slabs — a block slice
// per function, the function list grown by append — kept verbatim as the
// oracle of TestDecodeMatchesReference.
func refDecode(data []byte) (*Map, error) {
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

// TestDecodeMatchesReference: the slab decoder against refDecode on random
// maps — the same functions and blocks, the same bytes re-encoded in a
// buffer of exactly their size, the same verdict on every truncation.
func TestDecodeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &Map{}
		for f, nf := 0, rng.Intn(40); f < nf; f++ {
			fe := FuncEntry{Name: "f" + string(rune('a'+f%26)), Addr: uint64(rng.Intn(1 << 20))}
			for b, nb := 0, rng.Intn(12); b < nb; b++ {
				fe.Blocks = append(fe.Blocks, BlockEntry{ID: rng.Intn(300), Offset: uint64(rng.Intn(4096)), Size: uint64(rng.Intn(64)), Flags: BlockFlags(rng.Intn(16))})
			}
			m.Funcs = append(m.Funcs, fe)
		}
		data := Encode(m)
		if cap(data) != len(data) {
			t.Fatalf("seed %d: encoded %d bytes in a %d-byte buffer", seed, len(data), cap(data))
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refDecode(data)
		if err != nil {
			t.Fatal(err)
		}
		same := len(got.Funcs) == len(want.Funcs)
		for i := 0; same && i < len(want.Funcs); i++ {
			g, w := got.Funcs[i], want.Funcs[i]
			same = g.Name == w.Name && g.Addr == w.Addr && slices.Equal(g.Blocks, w.Blocks)
		}
		if !same || !slices.Equal(Encode(got), data) {
			t.Fatalf("seed %d: decoded map differs from the reference decoder's", seed)
		}
		for cut := 0; cut < len(data); cut += 1 + rng.Intn(5) {
			_, errNew := Decode(data[:cut])
			_, errRef := refDecode(data[:cut])
			if (errNew == nil) != (errRef == nil) {
				t.Fatalf("seed %d: truncation at %d: %v, reference %v", seed, cut, errNew, errRef)
			}
		}
	}
}

// TestDecodedSlicesDoNotAlias: the functions' decoded block lists are runs
// of one chunk; appending to one reallocates it and leaves the next alone.
func TestDecodedSlicesDoNotAlias(t *testing.T) {
	data := Encode(sample())
	m, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Funcs {
		f := &m.Funcs[i]
		f.Blocks = append(f.Blocks, BlockEntry{ID: 999, Size: 999})[:len(f.Blocks)]
	}
	if !slices.Equal(Encode(m), data) {
		t.Fatal("an append to one function's decoded blocks changed another's")
	}
}
