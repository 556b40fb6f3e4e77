// Hot-path reconstruction from the LBR stream (§3.3 extended): instead
// of collapsing samples into independent edge counts, consecutive
// intra-function records are stitched back into the execution paths the
// hardware actually observed. The resulting path strings feed the
// path-cloning layout policy (Config.PathClone), which biases Ext-TSP
// toward keeping each hot path contiguous — the role llvm-propeller
// reserves for PathProfileOptions in its options proto.
package wpa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sort"
	"strconv"
	"strings"

	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

// HotPath is one reconstructed execution path: a sequence of block IDs
// inside a single function, observed Count times across the profile.
type HotPath struct {
	Blocks []int
	Count  uint64
}

// PathSet maps a function name to its hottest reconstructed paths,
// count-descending (ties broken by the lexicographically smaller block
// sequence, so the set is deterministic).
type PathSet map[string][]HotPath

// PathOptions tune the reconstruction.
type PathOptions struct {
	// MaxLen caps the blocks per path; longer executions are flushed and
	// restarted (default 16).
	MaxLen int

	// MinCount drops paths observed fewer times (default 2: a path seen
	// once is noise at any realistic sampling period).
	MinCount uint64

	// MaxPerFunc keeps only the hottest N paths per function
	// (default 4).
	MaxPerFunc int
}

func (o PathOptions) maxLen() int {
	if o.MaxLen > 0 {
		return o.MaxLen
	}
	return 16
}

func (o PathOptions) minCount() uint64 {
	if o.MinCount > 0 {
		return o.MinCount
	}
	return 2
}

func (o PathOptions) maxPerFunc() int {
	if o.MaxPerFunc > 0 {
		return o.MaxPerFunc
	}
	return 4
}

// pathWalker stitches one sample's records into per-function block paths.
// A path extends while control flow stays inside one function — taken
// intra-function branches and the fall-through blocks between records —
// and flushes on anything else: calls, returns, unresolvable addresses,
// truncated records, or a function change mid-range (a path never
// crosses a function boundary). Functions are named by their index in the
// lookup's FuncNames until a path is recorded.
type pathWalker struct {
	opts   PathOptions
	names  []string
	counts map[string]*pathStat
	curFn  int32 // -1 between paths
	cur    []int
}

type pathStat struct {
	fn     string
	blocks []int
	count  uint64
}

func (w *pathWalker) flush() {
	if len(w.cur) >= 2 {
		fn := w.names[w.curFn]
		key := pathKey(fn, w.cur)
		st := w.counts[key]
		if st == nil {
			st = &pathStat{fn: fn, blocks: append([]int(nil), w.cur...)}
			w.counts[key] = st
		}
		st.count++
	}
	w.cur = w.cur[:0]
	w.curFn = -1
}

// push appends a block to the current path, flushing first when the
// length cap is reached (the successor then starts a fresh path).
func (w *pathWalker) push(fn int32, id int) {
	if len(w.cur) >= w.opts.maxLen() {
		w.flush()
		w.curFn = fn
	}
	w.cur = append(w.cur, id)
}

// branch records a taken intra-function branch from → to. If the source
// block does not continue the current path, the path restarts at the
// source.
func (w *pathWalker) branch(fn int32, from, to int) {
	if w.curFn != fn || len(w.cur) == 0 || w.cur[len(w.cur)-1] != from {
		w.flush()
		w.curFn = fn
		w.cur = append(w.cur, from)
	}
	w.push(fn, to)
}

// step records one fall-through block. A repeat of the path's last block
// is the range's first block re-reporting the branch target already
// pushed, not a new visit, and is skipped; a function change splits the
// path.
func (w *pathWalker) step(fn int32, id int) {
	if w.curFn == fn && len(w.cur) > 0 && w.cur[len(w.cur)-1] == id {
		return
	}
	if w.curFn != fn {
		w.flush()
		w.curFn = fn
	}
	w.push(fn, id)
}

func pathKey(fn string, blocks []int) string {
	var b strings.Builder
	b.WriteString(fn)
	for _, id := range blocks {
		b.WriteByte(0)
		b.WriteString(strconv.Itoa(id))
	}
	return b.String()
}

// ReconstructPaths rebuilds hot execution paths from raw LBR samples
// against m's block layout. Duplicated samples (transport-level
// re-delivery that slipped past dedup) simply double their paths'
// counts — reconstruction is a fold over independent samples, so the
// output is deterministic for any fixed sample multiset.
func ReconstructPaths(m *bbaddrmap.Map, prof *profile.Profile, opts PathOptions) (PathSet, error) {
	if err := checkMap(m); err != nil {
		return nil, err
	}
	return reconstructPaths(bbaddrmap.NewLookup(m), prof, opts), nil
}

// reconstructPaths is ReconstructPaths over an already-built lookup.
func reconstructPaths(lk *bbaddrmap.Lookup, prof *profile.Profile, opts PathOptions) PathSet {
	walker := newRecordWalker(lk)
	blocks := walker.blocks
	w := &pathWalker{opts: opts, names: lk.FuncNames(), counts: map[string]*pathStat{}, curFn: -1}
	var st step
	for _, s := range prof.Samples {
		for i := range s.Records {
			walker.walk(s.Records, i, &st)
			if st.kind == recBranch {
				w.branch(blocks[st.from].Fn, blocks[st.from].ID, blocks[st.to].ID)
			} else {
				// Call, return, or unresolvable record — the path cannot
				// continue across it.
				w.flush()
			}
			if st.cut {
				w.flush()
			}
			for _, b := range st.run {
				w.step(blocks[b].Fn, blocks[b].ID)
			}
		}
		// The ring ends here; whatever ran after the last record was not
		// captured, so the path cannot be extended across samples.
		w.flush()
	}

	perFn := map[string][]*pathStat{}
	for _, st := range w.counts {
		if st.count >= opts.minCount() {
			perFn[st.fn] = append(perFn[st.fn], st)
		}
	}
	out := PathSet{}
	for fn, stats := range perFn {
		sort.Slice(stats, func(a, b int) bool {
			if stats[a].count != stats[b].count {
				return stats[a].count > stats[b].count
			}
			return lessBlocks(stats[a].blocks, stats[b].blocks)
		})
		if len(stats) > opts.maxPerFunc() {
			stats = stats[:opts.maxPerFunc()]
		}
		paths := make([]HotPath, len(stats))
		for i, st := range stats {
			paths[i] = HotPath{Blocks: st.blocks, Count: st.count}
		}
		out[fn] = paths
	}
	return out
}

func lessBlocks(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// fingerprint deterministically digests the path set for the layout
// policy cache key: two analyses with different hot paths must never
// share cached layouts.
func (ps PathSet) fingerprint() string {
	fns := make([]string, 0, len(ps))
	for fn := range ps {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	vi := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	for _, fn := range fns {
		io.WriteString(h, fn)
		h.Write([]byte{0})
		vi(uint64(len(ps[fn])))
		for _, p := range ps[fn] {
			vi(p.Count)
			vi(uint64(len(p.Blocks)))
			for _, b := range p.Blocks {
				vi(uint64(b))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
