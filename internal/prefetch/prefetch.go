// Package prefetch implements the §3.5 extension: profile-guided,
// post-link software prefetch insertion in the Propeller style. The
// whole-program analysis consumes a cache-miss profile (per-PC L1d miss
// counts from the simulator's PMU, standing in for precise-event memory
// sampling), maps miss sites to basic blocks through the BB address map —
// again with no disassembly — and emits a summary directive. Distributed
// codegen actions then re-emit the affected objects with prefetch
// instructions ahead of the missing loads.
package prefetch

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"propeller/internal/bbaddrmap"
)

// Site is one insertion point: the load at block-relative byte offset Off
// inside block Block of function Fn gets a prefetch Delta bytes ahead of
// its address.
type Site struct {
	Fn    string
	Block int
	Off   uint64 // block-relative byte offset of the missing load
	Delta int64  // lookahead distance in bytes
}

// Directives maps function name → insertion sites, sorted by (block, off).
type Directives map[string][]Site

// Config tunes the analysis.
type Config struct {
	// MinMisses is the miss-count threshold for a load to get a prefetch
	// (default 64).
	MinMisses uint64
	// MaxSites bounds the number of insertion points (default 32).
	MaxSites int
}

// Delta is the lookahead distance every analyzed site gets: 256 bytes,
// 4 cache lines.
const Delta = 256

func (c Config) minMisses() uint64 {
	if c.MinMisses == 0 {
		return 64
	}
	return c.MinMisses
}

func (c Config) maxSites() int {
	if c.MaxSites == 0 {
		return 32
	}
	return c.MaxSites
}

// Analyze maps the top miss sites to directive entries.
func Analyze(m *bbaddrmap.Map, misses map[uint64]uint64, cfg Config) Directives {
	lookup := bbaddrmap.NewLookup(m)
	blocks, names := lookup.Blocks(), lookup.FuncNames()
	type cand struct {
		site   Site
		misses uint64
	}
	var cands []cand
	for pc, n := range misses {
		if n < cfg.minMisses() {
			continue
		}
		bi := lookup.BlockAt(pc)
		if bi == bbaddrmap.NoBlock {
			continue
		}
		b := &blocks[bi]
		cands = append(cands, cand{
			site:   Site{Fn: names[b.Fn], Block: b.ID, Off: pc - b.Start, Delta: Delta},
			misses: n,
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].misses != cands[j].misses {
			return cands[i].misses > cands[j].misses
		}
		a, b := cands[i].site, cands[j].site
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		return a.Off < b.Off
	})
	if len(cands) > cfg.maxSites() {
		cands = cands[:cfg.maxSites()]
	}
	out := Directives{}
	for _, c := range cands {
		out[c.site.Fn] = append(out[c.site.Fn], c.site)
	}
	for fn := range out {
		sites := out[fn]
		sort.Slice(sites, func(i, j int) bool {
			if sites[i].Block != sites[j].Block {
				return sites[i].Block < sites[j].Block
			}
			return sites[i].Off < sites[j].Off
		})
	}
	return out
}

// Write serializes directives in a cc_prof.txt-like text format:
//
//	@fn
//	@@block off delta
func Write(w io.Writer, d Directives) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "@%s\n", n)
		for _, s := range d[n] {
			fmt.Fprintf(bw, "@@%d %d %d\n", s.Block, s.Off, s.Delta)
		}
	}
	return bw.Flush()
}

// Parse reads the format produced by Write.
func Parse(r io.Reader) (Directives, error) {
	d := Directives{}
	sc := bufio.NewScanner(r)
	cur := ""
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(text, "@@"):
			if cur == "" {
				return nil, fmt.Errorf("prefetch: line %d: site before function", line)
			}
			fields := strings.Fields(text[2:])
			if len(fields) != 3 {
				return nil, fmt.Errorf("prefetch: line %d: want 3 fields", line)
			}
			blk, err1 := strconv.Atoi(fields[0])
			off, err2 := strconv.ParseUint(fields[1], 10, 64)
			delta, err3 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("prefetch: line %d: bad numbers", line)
			}
			d[cur] = append(d[cur], Site{Fn: cur, Block: blk, Off: off, Delta: delta})
		case strings.HasPrefix(text, "@"):
			cur = strings.TrimSpace(text[1:])
			if cur == "" {
				return nil, fmt.Errorf("prefetch: line %d: empty function", line)
			}
		default:
			return nil, fmt.Errorf("prefetch: line %d: unrecognized %q", line, text)
		}
	}
	return d, sc.Err()
}
