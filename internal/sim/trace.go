package sim

import (
	"encoding/binary"
	"hash/fnv"

	"propeller/internal/bbaddrmap"
)

// blockTrace is the state of Config.TraceBlocks: a memoized block-start
// query over the binary's address map, each row's layout-independent key,
// and the rolling hash.
type blockTrace struct {
	r    *bbaddrmap.Resolver
	keys []uint64 // by block row: FNV-1a of the function name, a zero byte and the block ID
	hash uint64
}

func newBlockTrace(l *bbaddrmap.Lookup) *blockTrace {
	names, blocks := l.FuncNames(), l.Blocks()
	t := &blockTrace{r: bbaddrmap.NewResolver(l), keys: make([]uint64, len(blocks))}
	h := fnv.New64a()
	var buf []byte
	for i, b := range blocks {
		buf = append(append(buf[:0], names[b.Fn]...), 0)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(b.ID))
		h.Reset()
		h.Write(buf)
		t.keys[i] = h.Sum64()
	}
	return t
}

// enter is called once for every instruction the run fetches, before it
// executes; pc is a block entry when a block of the map starts there.
func (t *blockTrace) enter(pc uint64) {
	if bi := t.r.BlockStarting(pc); bi >= 0 {
		h := (t.hash ^ t.keys[bi]) * 0x9E3779B97F4A7C15
		t.hash = h ^ h>>29
	}
}
