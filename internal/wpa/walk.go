// The record walker: the one place an LBR record is given a meaning.
// A record means two things: its taken branch (branch), classified as an
// intra-function edge, a call into an entry or neither, and the blocks that
// ran in sequence from its target up to the next record's source
// (fallThrough). Both depend on the record's addresses alone, so their two
// consumers call them differently: hot-path reconstruction walks a sample
// record by record (walk), because a path needs record order, while
// aggregation counts records by address and calls branch and fallThrough
// once per distinct key (shard.drain). Either way the consumers see
// block-table rows (bbaddrmap.Lookup), not addresses or names.
package wpa

import (
	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

// recordKind classifies the taken branch of one LBR record.
type recordKind uint8

const (
	// recOther is a return, a call into the middle of something, or a
	// record with an address no block covers: it contributes no edge.
	recOther recordKind = iota
	// recBranch is an intra-function branch: the source sits in its
	// block's terminator region and the target starts a block of the
	// same function.
	recBranch
	// recCall is a call (or tail transfer) into another function's entry
	// block, attributed to its call-site block so inter-procedural layout
	// can split callers between call sites (§4.7).
	recCall
)

// termRegion is how far before its block's end a branch source may sit and
// still count as the block's terminator.
const termRegion = 10

// step is one record of a sample, resolved.
type step struct {
	kind recordKind
	// from is the row of the block covering the record's source, to the
	// row of the block its target starts; bbaddrmap.NoBlock when there is
	// none. Both are rows whenever kind is not recOther.
	from, to int32
	// cut marks a record whose successor's source lies below its target (a
	// truncated or inconsistent pair): no fall-through range exists.
	cut bool
	// run holds, in address order, the rows of the blocks starting between
	// the record's target and the next record's source. Sequential
	// execution between the two credits every one of them, and every
	// adjacent pair is a traversed fall-through edge — without these, the
	// layout algorithm would only see taken branches and would happily
	// destroy existing fall-through paths. It aliases the walker's
	// resolver and is valid until the next walk call.
	run []int32
}

// recordWalker resolves records against one binary's block table. It owns a
// memoizing resolver, so it is not safe for concurrent use: each consumer
// goroutine makes its own over the shared, immutable lookup.
type recordWalker struct {
	res    *bbaddrmap.Resolver
	blocks []bbaddrmap.Block
}

func newRecordWalker(lk *bbaddrmap.Lookup) recordWalker {
	return recordWalker{res: bbaddrmap.NewResolver(lk), blocks: lk.Blocks()}
}

// walk resolves recs[i]: its taken branch, and the fall-through range up
// to the next record's source unless the record is the sample's last or its
// pair is cut.
func (w *recordWalker) walk(recs []profile.Branch, i int, st *step) {
	r := recs[i]
	*st = step{}
	st.kind, st.from, st.to = w.branch(r.From, r.To)
	if i+1 == len(recs) {
		return // whatever ran after the sample's last target was not captured
	}
	if next := recs[i+1].From; next < r.To {
		st.cut = true
	} else {
		st.run = w.fallThrough(r.To, next)
	}
}

// branch classifies the taken branch from → to and returns the rows of the
// block covering from and of the block starting at to, bbaddrmap.NoBlock
// where there is none.
func (w *recordWalker) branch(from, to uint64) (kind recordKind, fromRow, toRow int32) {
	fromRow, toRow = w.res.BlockAt(from), w.res.BlockStarting(to)
	if fromRow >= 0 && toRow >= 0 {
		f, t := &w.blocks[fromRow], &w.blocks[toRow]
		if f.Fn == t.Fn && f.End-from <= termRegion {
			kind = recBranch
		} else if t.Entry {
			kind = recCall
		}
	}
	return kind, fromRow, toRow
}

// fallThrough returns step.run for a record whose target is to and whose
// successor's source is next (next >= to). It aliases the walker's resolver
// and is valid until the next call.
func (w *recordWalker) fallThrough(to, next uint64) []int32 {
	return w.res.BlocksIn(to, next)
}
