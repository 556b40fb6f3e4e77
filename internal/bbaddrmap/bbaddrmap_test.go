package bbaddrmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func sample() *Map {
	return &Map{Funcs: []FuncEntry{
		{
			Name: "foo", Addr: 0x1000,
			Blocks: []BlockEntry{
				{ID: 0, Offset: 0, Size: 16, Flags: FlagCall},
				{ID: 1, Offset: 16, Size: 8, Flags: FlagFallThrough},
				{ID: 3, Offset: 24, Size: 12, Flags: FlagReturn},
			},
		},
		{
			Name: "foo", Addr: 0x4000, // cold fragment of foo
			Blocks: []BlockEntry{
				{ID: 2, Offset: 0, Size: 20, Flags: FlagLandingPad},
			},
		},
		{
			Name: "bar", Addr: 0x2000,
			Blocks: []BlockEntry{
				{ID: 0, Offset: 0, Size: 5, Flags: 0},
			},
		},
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sample()
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", m, got)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(sample())
	for cut := 1; cut < len(data); cut++ {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("decoded %d-byte truncation", cut)
		}
	}
	// Hostile headers: a few bytes that used to panic the decoder (a name
	// length that wraps int negative slips past the bounds check) or make
	// it reserve gigabytes (32-byte entries for a declared block count).
	hugeName := binary.AppendUvarint([]byte{1}, 1<<63)
	manyBlocks := binary.AppendUvarint([]byte{1, 0, 0}, 1<<26)
	blockID := binary.AppendUvarint([]byte{1, 0, 0, 1}, 1<<63)
	blockID = append(blockID, 0, 0, 0)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"trailing 0xFF", append(append([]byte(nil), data...), 0xFF)},
		{"trailing 0x00", append(append([]byte(nil), data...), 0x00)},
		{"11 bytes: one function whose name length is 2^63", hugeName},
		{"one function declaring 1<<26 blocks", manyBlocks},
		{"block id 2^63", blockID},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: allocated %d bytes, want < 1 MB", tc.name, n)
		}
	}
	if len(hugeName) != 11 {
		t.Errorf("hostile name-length input is %d bytes, want 11", len(hugeName))
	}
}

func TestDecodeEmpty(t *testing.T) {
	m := &Map{}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Funcs) != 0 {
		t.Errorf("got %d funcs, want 0", len(got.Funcs))
	}
}

func TestResolve(t *testing.T) {
	l := NewLookup(sample())
	cases := []struct {
		addr   uint64
		fn     string
		id     int
		wantOK bool
	}{
		{0x1000, "foo", 0, true},
		{0x100F, "foo", 0, true},
		{0x1010, "foo", 1, true},
		{0x1018, "foo", 3, true},
		{0x1023, "foo", 3, true},
		{0x1024, "", 0, false}, // one past the end of foo's hot fragment
		{0x2000, "bar", 0, true},
		{0x2004, "bar", 0, true},
		{0x2005, "", 0, false},
		{0x4000, "foo", 2, true}, // cold fragment resolves back to foo
		{0x4013, "foo", 2, true},
		{0x0FFF, "", 0, false},
		{0x9999, "", 0, false},
	}
	for _, c := range cases {
		fn, id, ok := l.Resolve(c.addr)
		if ok != c.wantOK || fn != c.fn || (ok && id != c.id) {
			t.Errorf("Resolve(%#x) = (%q, %d, %v), want (%q, %d, %v)",
				c.addr, fn, id, ok, c.fn, c.id, c.wantOK)
		}
	}
}

func TestFuncAt(t *testing.T) {
	l := NewLookup(sample())
	f, ok := l.FuncAt(0x2003)
	if !ok || f.Name != "bar" {
		t.Errorf("FuncAt(0x2003) = %v, %v", f, ok)
	}
	if _, ok := l.FuncAt(0x3000); ok {
		t.Error("FuncAt in a hole should fail")
	}
}

func TestRebase(t *testing.T) {
	m := sample()
	r := m.Rebase(0x1000)
	if r.Funcs[0].Addr != 0x2000 || r.Funcs[2].Addr != 0x3000 {
		t.Error("Rebase did not shift addresses")
	}
	if m.Funcs[0].Addr != 0x1000 {
		t.Error("Rebase mutated the original")
	}
	r.Funcs[0].Blocks[0].Size = 999
	if m.Funcs[0].Blocks[0].Size == 999 {
		t.Error("Rebase shares block slices with the original")
	}
}

func TestMerge(t *testing.T) {
	a := &Map{Funcs: []FuncEntry{{Name: "a"}}}
	b := &Map{Funcs: []FuncEntry{{Name: "b"}, {Name: "c"}}}
	m := Merge(a, b)
	if len(m.Funcs) != 3 || m.Funcs[2].Name != "c" {
		t.Errorf("Merge produced %+v", m.Funcs)
	}
}

// Property: the memoizing Resolver answers every index-form query exactly
// like the raw Lookup, under heavy repetition (high hit rate), collisions,
// and arena resets.
func TestResolverMatchesLookup(t *testing.T) {
	oldMax := arenaMax
	arenaMax = 64 // force frequent arena resets
	defer func() { arenaMax = oldMax }()

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, probes := hostileMap(rng, seed%2 == 0)
		l := NewLookup(m)
		r := NewResolver(l)
		span := int64(probes[len(probes)-2])
		probe := func() uint64 {
			// Bias probes toward block boundaries so hits and misses both
			// occur, and revisit a small working set to exercise the memo.
			if rng.Intn(4) == 0 {
				return uint64(rng.Int63n(span))
			}
			return probes[rng.Intn(len(probes))>>uint(rng.Intn(3))]
		}
		var want []int32
		for q := 0; q < 4000; q++ {
			a := probe()
			if l.BlockAt(a) != r.BlockAt(a) || l.BlockStarting(a) != r.BlockStarting(a) {
				return false
			}
			b := probe()
			if b < a && rng.Intn(8) != 0 { // mostly ordered, sometimes an inverted range
				a, b = b, a
			}
			want = l.AppendBlocksIn(want[:0], a, b)
			if !slices.Equal(want, r.BlocksIn(a, b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every (addr in block) resolves to that block for random
// non-overlapping layouts.
func TestResolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &Map{}
		addr := uint64(0x1000)
		type placed struct {
			fn    string
			id    int
			start uint64
			size  uint64
		}
		var all []placed
		nFrag := 1 + rng.Intn(20)
		for i := 0; i < nFrag; i++ {
			fn := FuncEntry{Name: "f" + string(rune('a'+rng.Intn(26))), Addr: addr}
			off := uint64(0)
			nb := 1 + rng.Intn(6)
			for j := 0; j < nb; j++ {
				size := uint64(1 + rng.Intn(40))
				fn.Blocks = append(fn.Blocks, BlockEntry{ID: j, Offset: off, Size: size})
				all = append(all, placed{fn.Name, j, addr + off, size})
				off += size
			}
			m.Funcs = append(m.Funcs, fn)
			addr += off + uint64(rng.Intn(64)) // gap
		}
		l := NewLookup(m)
		for _, p := range all {
			for _, probe := range []uint64{p.start, p.start + p.size - 1, p.start + p.size/2} {
				fn, id, ok := l.Resolve(probe)
				if !ok || fn != p.fn || id != p.id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzDecode: the section arrives inside any object or executable handed
// to the linker, wsc-wpa, wsc-objdump or the profile service. Decode must
// never panic, whatever it accepts must re-encode to a fixed point, and one
// decode — accepted or not, hostile counts in any position — allocates at
// most 32 bytes per input byte plus a constant (the costliest bytes are an
// empty function, 48 bytes of FuncEntry per 3, and a 32-byte BlockEntry per
// 4 in a chunk that may be abandoned half used).
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sample()))
	f.Add(Encode(&Map{}))
	f.Add(binary.AppendUvarint([]byte{1}, 1<<63))
	f.Add(binary.AppendUvarint([]byte{1, 0, 0}, 1<<26))
	// Counts the remaining bytes could be, but not as functions or blocks.
	f.Add(append(binary.AppendUvarint(nil, 6000), make([]byte, 6000)...))
	f.Add(append(binary.AppendUvarint([]byte{1, 0, 0}, 6000), make([]byte, 6000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Decode(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 32*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		enc := Encode(m)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted input failed: %v", err)
		}
		if !bytes.Equal(enc, Encode(again)) {
			t.Fatal("encoding is not a fixed point over accepted inputs")
		}
	})
}
