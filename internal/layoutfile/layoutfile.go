// Package layoutfile implements the two layout-directive artifacts the
// whole-program analysis of Phase 3 hands to Phase 4 (Fig. 1 of the paper):
//
//   - cc_prof.txt: per-function basic-block cluster directives consumed by
//     the compiler backend (the LLVM -fbasic-block-sections=list format);
//   - ld_prof.txt: the symbol ordering file consumed by the linker.
package layoutfile

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ClusterSpec is the cluster directive for one function: each cluster is an
// ordered list of basic block IDs that the backend places in one section.
// Clusters[0] is the primary cluster and must begin with the entry block.
// Blocks not listed in any cluster are placed in an implicit trailing cold
// section (suffix ".cold").
type ClusterSpec struct {
	Clusters [][]int
}

// Directives maps function name → cluster directive (cc_prof.txt contents).
type Directives map[string]ClusterSpec

// Contains reports whether block id appears in any cluster.
func (c ClusterSpec) Contains(id int) bool {
	for _, cl := range c.Clusters {
		for _, b := range cl {
			if b == id {
				return true
			}
		}
	}
	return false
}

// WriteDirectives serializes directives in the cc_prof.txt text format:
//
//	!funcName
//	!!0 2 5
//	!!3 4
//
// Functions are written in sorted order for determinism.
func WriteDirectives(w io.Writer, d Directives) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(d))
	for name := range d {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(bw, "!%s\n", name); err != nil {
			return err
		}
		for _, cluster := range d[name].Clusters {
			parts := make([]string, len(cluster))
			for i, id := range cluster {
				parts[i] = strconv.Itoa(id)
			}
			if _, err := fmt.Fprintf(bw, "!!%s\n", strings.Join(parts, " ")); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ParseDirectives parses the cc_prof.txt format.
func ParseDirectives(r io.Reader) (Directives, error) {
	d := Directives{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var cur string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "!!"):
			if cur == "" {
				return nil, fmt.Errorf("layoutfile: line %d: cluster before function name", lineNo)
			}
			var cluster []int
			for _, tok := range strings.Fields(line[2:]) {
				id, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("layoutfile: line %d: bad block id %q", lineNo, tok)
				}
				cluster = append(cluster, id)
			}
			if len(cluster) == 0 {
				return nil, fmt.Errorf("layoutfile: line %d: empty cluster", lineNo)
			}
			spec := d[cur]
			spec.Clusters = append(spec.Clusters, cluster)
			d[cur] = spec
		case strings.HasPrefix(line, "!"):
			cur = strings.TrimSpace(line[1:])
			if cur == "" {
				return nil, fmt.Errorf("layoutfile: line %d: empty function name", lineNo)
			}
			if cur[0] == '!' {
				// "! !f" would be written back as "!!f", a cluster line.
				return nil, fmt.Errorf("layoutfile: line %d: function name %q begins with '!'", lineNo, cur)
			}
			if _, dup := d[cur]; dup {
				return nil, fmt.Errorf("layoutfile: line %d: duplicate function %q", lineNo, cur)
			}
			d[cur] = ClusterSpec{}
		default:
			return nil, fmt.Errorf("layoutfile: line %d: unrecognized line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// SymbolOrder is the linker's global section layout: symbol names in the
// order their sections should be placed (ld_prof.txt contents).
type SymbolOrder struct {
	Symbols []string
}

// WriteOrder serializes a symbol ordering file, one symbol per line.
func WriteOrder(w io.Writer, o SymbolOrder) error {
	bw := bufio.NewWriter(w)
	for _, s := range o.Symbols {
		if _, err := fmt.Fprintln(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Render returns the cc_prof.txt and ld_prof.txt bytes of one layout
// decision, as WriteDirectives and WriteOrder write them.
func Render(d Directives, o SymbolOrder) (cc, ld []byte, err error) {
	var ccBuf, ldBuf bytes.Buffer
	if err := WriteDirectives(&ccBuf, d); err != nil {
		return nil, nil, err
	}
	if err := WriteOrder(&ldBuf, o); err != nil {
		return nil, nil, err
	}
	return ccBuf.Bytes(), ldBuf.Bytes(), nil
}

// ParseOrder parses a symbol ordering file. Duplicate symbols are an error:
// a symbol cannot be placed twice.
func ParseOrder(r io.Reader) (SymbolOrder, error) {
	var o SymbolOrder
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if seen[line] {
			return SymbolOrder{}, fmt.Errorf("layoutfile: line %d: duplicate symbol %q", lineNo, line)
		}
		seen[line] = true
		o.Symbols = append(o.Symbols, line)
	}
	if err := sc.Err(); err != nil {
		return SymbolOrder{}, err
	}
	return o, nil
}
