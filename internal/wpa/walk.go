// The record walker: the one place an LBR record is given a meaning.
// Aggregation and hot-path reconstruction both consume a sample as a
// sequence of steps — a classified taken branch plus the blocks that ran
// in sequence up to the next record's source — and differ only in what
// they count, so the classification and the fall-through range live here
// and the consumers see block-table rows (bbaddrmap.Lookup), not addresses
// or names.
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
	// last marks the sample's final record: whatever ran after its target
	// was not captured.
	last bool
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

// walk resolves recs[i].
func (w *recordWalker) walk(recs []profile.Branch, i int, st *step) {
	r := recs[i]
	*st = step{from: w.res.BlockAt(r.From), to: w.res.BlockStarting(r.To)}
	if st.from >= 0 && st.to >= 0 {
		from, to := &w.blocks[st.from], &w.blocks[st.to]
		if from.Fn == to.Fn && from.End-r.From <= termRegion {
			st.kind = recBranch
		} else if to.Entry {
			st.kind = recCall
		}
	}
	if i+1 == len(recs) {
		st.last = true
	} else if next := recs[i+1].From; next < r.To {
		st.cut = true
	} else {
		st.run = w.res.BlocksIn(r.To, next)
	}
}
