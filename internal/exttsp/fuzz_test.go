package exttsp

import (
	"reflect"
	"testing"
)

// graphFromBytes decodes an arbitrary byte string into a CFG-like graph
// and layout options deterministically, so the fuzzer explores graph
// shapes (self-loops, duplicate edges, zero weights, zero sizes,
// disconnected nodes) and the options that change which candidates a
// merge has (forced node, split bound, scoring windows) rather than raw
// memory-safety only. Most inputs give up to 63 nodes; a first byte of
// 224 or more gives 64–312, enough for a chain to outgrow the default
// MaxSplitChain.
func graphFromBytes(data []byte) (*Graph, Options) {
	if len(data) < 3 {
		return nil, Options{}
	}
	n := 2 + int(data[0])%62
	if data[0] >= 224 {
		n = 64 + 8*int(data[0]-224)
	}
	opts := Options{ForcedFirst: -1}
	if data[1]%3 == 0 {
		opts.ForcedFirst = int(data[1]/3) % n
	}
	// Small split bounds make concat-only pairs common on small graphs.
	opts.MaxSplitChain = []int{0, 0, 1, 3, 8}[int(data[2]&0x0f)%5]
	opts.Params = []Params{
		{},
		{ForwardWindow: 1, BackwardWindow: 1},
		{ForwardWeight: 0.4, BackwardWeight: 0.05},
		{FallthroughWeight: 0.001, ForwardWindow: 16384},
	}[int(data[2]>>4)%4]
	g := &Graph{Nodes: make([]Node, n)}
	i := 3
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		b := data[i]
		i++
		return b
	}
	for j := range g.Nodes {
		g.Nodes[j] = Node{Size: int64(next()), Count: uint64(next())}
	}
	for i < len(data)-2 {
		src := int(next())<<8 | int(next())
		dst := int(next())<<8 | int(next())
		w := uint64(next()) | uint64(next())<<8 | uint64(next())<<16 | uint64(next())<<24
		g.Edges = append(g.Edges, Edge{Src: src % n, Dst: dst % n, Weight: w})
	}
	return g, opts
}

// hubSeed is a fuzz input whose graph is one component around a few hubs:
// every other node has an edge to or from a hub, so a merge into a hub's
// chain leaves dozens of neighbours with a bound entry each, which a sparse
// random input rarely decodes to. The third byte picks the options; with
// equal set, every node is 16 bytes and every edge weighs 3, so gains tie
// exactly between different pairs and the (x, y) tie-break decides.
func hubSeed(first byte, hubs int, opts byte, equal bool) []byte {
	data := []byte{first, 1, opts}
	g, _ := graphFromBytes(data)
	n := len(g.Nodes)
	for i := 0; i < n; i++ {
		size := byte(8 + i%40)
		if equal {
			size = 16
		}
		data = append(data, size, byte(i))
	}
	for i := 1; i < n; i++ {
		src, dst := i, i%hubs // a hub hangs off the hub before it
		if i < hubs {
			dst = i - 1
		}
		if i%3 == 0 {
			src, dst = dst, src
		}
		w0, w1 := byte(1+i%7), byte(i%2)
		if equal {
			w0, w1 = 3, 0
		}
		data = append(data, byte(src>>8), byte(src), byte(dst>>8), byte(dst), w0, w1, 0, 0)
	}
	return data
}

// zeroEndsSeed is a fuzz input whose chains grow with zero-size nodes at
// both ends: a fall-through path over 24 nodes in which every node at a
// multiple of 3 and the one after it are empty, plus a back edge every
// fifth node. A zero-size node shares its offset with a neighbour, so it
// can start or end a chain without being its first or last node: the case
// the bound's fall-through test reads offsets, not indices, for.
func zeroEndsSeed() []byte {
	data := []byte{22, 1, 0}
	for i := 0; i < 24; i++ {
		size := byte(4 + i%5)
		if i%3 != 2 {
			size = 0
		}
		data = append(data, size, byte(1+i))
	}
	for i := 0; i+1 < 24; i++ {
		data = append(data, 0, byte(i), 0, byte(i+1), byte(20+i%3), 0, 0, 0)
		if i%5 == 4 {
			data = append(data, 0, byte(i), 0, byte(i-4), 7, 0, 0, 0)
		}
	}
	return data
}

// FuzzHeapNaiveEquivalence is a three-way equivalence on any decoded
// graph. The heap-based logarithmic retrieval, with its lazy bound tiers,
// and the naive quadratic rescan must produce identical layouts — the
// §4.7 speedup must be purely about retrieval cost, never about which
// merge wins. Both must equal the reference that materialises and
// rescans every candidate: the two retrievals share one bestMerge, so only
// the reference can see it pick a different merge than scoring the built
// orders would.
func FuzzHeapNaiveEquivalence(f *testing.F) {
	f.Add([]byte{8, 0, 0, 10, 5, 20, 9, 30, 1, 40, 7, 0, 1, 50, 1, 2, 40, 2, 3, 30})
	f.Add([]byte{3, 3, 0x12, 0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 9, 0, 0, 0, 0, 1, 0, 2, 9, 0, 0, 0})
	f.Add([]byte{64, 6, 0x23, 255, 255, 0, 0, 128, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{230, 1, 0x30, 0, 0, 0, 1, 0, 2, 0xff, 0xff, 0xff, 0xff, 0, 2, 0, 1, 1, 0, 0, 0})
	f.Add(hubSeed(60, 1, 0, false))
	f.Add(hubSeed(228, 3, 0, false))
	f.Add(hubSeed(40, 4, 0, true))
	f.Add(hubSeed(40, 2, 0x30, false)) // FallthroughWeight 0.001: every bound is +Inf
	f.Add(zeroEndsSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, opts := graphFromBytes(data)
		if g == nil {
			return
		}
		on, err := layoutNaive(g, opts)
		if err != nil {
			t.Fatalf("naive layout: %v", err)
		}
		oh, err := Layout(g, opts)
		if err != nil {
			t.Fatalf("heap layout: %v", err)
		}
		if !reflect.DeepEqual(on, oh) {
			t.Fatalf("retrieval strategies diverged (n=%d opts=%+v)\nnaive %v\nheap  %v",
				len(g.Nodes), opts, on, oh)
		}
		if ref := untunedLayout(g, opts); !reflect.DeepEqual(oh, ref) {
			t.Fatalf("layout diverged from the materialising reference (n=%d opts=%+v)\n got %v\nwant %v",
				len(g.Nodes), opts, oh, ref)
		}
		scratch := &Scratch{}
		if sn, sh := ScoreWith(g, on, opts.Params, scratch), ScoreWith(g, oh, opts.Params, scratch); sn != sh {
			t.Fatalf("scores diverged: naive %v heap %v", sn, sh)
		}
	})
}
