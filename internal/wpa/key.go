// Cache keys and value codecs for the incremental Phase 3. The three
// cacheable actions are keyed so that exactly the right edits invalidate
// them:
//
//   - aggregate:        (profile epoch)
//   - per-func layout:  (profile epoch, layout policy, function content hash)
//   - global layout:    (profile epoch, layout policy, every content hash)
//
// The function content hash is position-independent — it covers the
// function's name, entry block, and block (id, size) shape, but not its
// address — so an edit elsewhere in the binary that merely shifts a
// function leaves its key, and therefore its cached layout, intact.
package wpa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"propeller/internal/buildsys"
	"propeller/internal/layoutfile"
)

// contentHash fingerprints a function's static shape from the BB address
// map: name, entry block ID, and every block's (id, size) in map order.
// Absolute addresses and block offsets are deliberately excluded (both
// are derived from the blocks that precede a block, so the shape already
// determines them relative to the entry).
func (fi *funcInfo) contentHash() string {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	vi := func(v int64) {
		n := binary.PutVarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	io.WriteString(h, fi.name)
	vi(int64(fi.entryID))
	vi(int64(len(fi.order)))
	for _, id := range fi.order {
		vi(int64(id))
		vi(fi.sizes[id])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// layoutPolicyKey captures every Config knob that influences layout
// output. Changing any of them must miss the layout caches even when the
// profile epoch and function shapes are unchanged. The Ext-TSP params
// are resolved first so a zero Params and explicitly-spelled paper
// defaults share cache entries (they produce identical layouts); every
// Params field must appear here — TestLayoutPolicyKeyCoversParams
// enforces that by reflection.
func (c Config) layoutPolicyKey() string {
	p := c.ExtTSP.Resolve()
	key := fmt.Sprintf("hot=%d naive=%t interproc=%t maxcluster=%d keeporder=%t ftw=%g fww=%g bww=%g fwin=%d bwin=%d",
		c.hotThreshold(), c.NaiveExtTSP, c.InterProc, c.MaxClusterSize, c.KeepBlockOrder,
		p.FallthroughWeight, p.ForwardWeight, p.BackwardWeight, p.ForwardWindow, p.BackwardWindow)
	if c.needsPaths() {
		key += " paths=" + c.HotPaths.fingerprint()
	}
	for _, fn := range sortedKeys(c.FuncPolicies) {
		key += fmt.Sprintf(" fn[%s]={%s}", fn, c.FuncPolicies[fn].policyKey())
	}
	return key
}

// policyKey renders the per-function policy knobs that influence one
// function's layout. Every FuncPolicy field must feed into this string —
// TestLayoutPolicyKeyCoversFuncPolicies enforces that by reflection.
func (fp FuncPolicy) policyKey() string {
	p := fp.ExtTSP.Resolve()
	return fmt.Sprintf("keeporder=%t pathclone=%t ftw=%g fww=%g bww=%g fwin=%d bwin=%d",
		fp.KeepBlockOrder, fp.PathClone,
		p.FallthroughWeight, p.ForwardWeight, p.BackwardWeight, p.ForwardWindow, p.BackwardWindow)
}

// funcPolicyKey is the per-function layout-cache policy component: the
// effective policy for fn plus the Config knobs that layoutOneIntra reads
// regardless of any override (hot threshold, naive fallback). Two configs
// that resolve to the same effective per-function policy share cache
// entries for fn even when they differ on other functions' overrides —
// that is what lets a warm re-search reuse per-func layouts across
// candidate tables that only move other functions.
func (c Config) funcPolicyKey(fn string) string {
	fp := c.funcPolicy(fn)
	key := fmt.Sprintf("hot=%d naive=%t %s", c.hotThreshold(), c.NaiveExtTSP, fp.policyKey())
	if fp.PathClone {
		key += " paths=" + PathSet{fn: c.HotPaths[fn]}.fingerprint()
	}
	return key
}

func sortedKeys(m map[string]FuncPolicy) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func aggCacheKey(epoch string) string {
	return buildsys.KeyStrings("wpa-agg", epoch)
}

func funcLayoutCacheKey(epoch, policy, funcHash string) string {
	return buildsys.KeyStrings("wpa-fn-layout", epoch, policy, funcHash)
}

func globalLayoutCacheKey(epoch, policy string, funcHashes []string) string {
	parts := make([]string, 0, 3+len(funcHashes))
	parts = append(parts, "wpa-global-layout", epoch, policy)
	parts = append(parts, funcHashes...)
	return buildsys.KeyStrings(parts...)
}

// Per-function layout entry codec: the cached result of one "per-function
// Ext-TSP layout" action (the intraOut the hit replays).
const layoutEntryMagic = "WFL1"

func encodeLayoutEntry(o intraOut) []byte {
	buf := append([]byte(nil), layoutEntryMagic...)
	if o.skip {
		return append(buf, 1)
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, o.samples)
	buf = binary.AppendUvarint(buf, uint64(len(o.cluster)))
	for _, id := range o.cluster {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

func decodeLayoutEntry(data []byte) (intraOut, error) {
	var o intraOut
	if len(data) < len(layoutEntryMagic)+1 || string(data[:len(layoutEntryMagic)]) != layoutEntryMagic {
		return o, fmt.Errorf("wpa: layout-entry codec: bad magic")
	}
	d := &aggDec{data: data, off: len(layoutEntryMagic)}
	switch data[d.off] {
	case 1:
		o.skip = true
		d.off++
		if d.off != len(data) {
			return o, fmt.Errorf("wpa: layout-entry codec: trailing bytes after skip marker")
		}
		return o, nil
	case 0:
		d.off++
	default:
		return o, fmt.Errorf("wpa: layout-entry codec: bad skip marker %d", data[d.off])
	}
	samples, err := d.uvarint()
	if err != nil {
		return o, err
	}
	n, err := d.count()
	if err != nil {
		return o, err
	}
	o.samples = samples
	o.cluster = make([]int, n)
	for i := 0; i < n; i++ {
		if o.cluster[i], err = d.int(); err != nil {
			return o, err
		}
	}
	if d.off != len(data) {
		return o, fmt.Errorf("wpa: layout-entry codec: %d trailing bytes", len(data)-d.off)
	}
	return o, nil
}

// Global layout artifact codec: the cached result of the "global layout"
// action is the pair of Phase-4 artifacts themselves, serialized in their
// canonical text forms. A hit replays them byte-identically by parsing
// the stored text back — layoutfile's writers emit canonical output, so
// write(parse(write(x))) == write(x).
const artifactsMagic = "WGA1"

func encodeArtifacts(res *Result) ([]byte, error) {
	var cc, ld bytes.Buffer
	if err := layoutfile.WriteDirectives(&cc, res.Directives); err != nil {
		return nil, err
	}
	if err := layoutfile.WriteOrder(&ld, res.Order); err != nil {
		return nil, err
	}
	buf := append([]byte(nil), artifactsMagic...)
	buf = binary.AppendUvarint(buf, uint64(cc.Len()))
	buf = append(buf, cc.Bytes()...)
	buf = binary.AppendUvarint(buf, uint64(ld.Len()))
	buf = append(buf, ld.Bytes()...)
	return buf, nil
}

func decodeArtifacts(data []byte, res *Result) error {
	if len(data) < len(artifactsMagic) || string(data[:len(artifactsMagic)]) != artifactsMagic {
		return fmt.Errorf("wpa: artifact codec: bad magic")
	}
	d := &aggDec{data: data, off: len(artifactsMagic)}
	ccN, err := d.count()
	if err != nil {
		return err
	}
	cc := data[d.off : d.off+ccN]
	d.off += ccN
	ldN, err := d.count()
	if err != nil {
		return err
	}
	ld := data[d.off : d.off+ldN]
	d.off += ldN
	if d.off != len(data) {
		return fmt.Errorf("wpa: artifact codec: %d trailing bytes", len(data)-d.off)
	}
	dirs, err := layoutfile.ParseDirectives(bytes.NewReader(cc))
	if err != nil {
		return err
	}
	order, err := layoutfile.ParseOrder(bytes.NewReader(ld))
	if err != nil {
		return err
	}
	res.Directives = dirs
	res.Order = order
	return nil
}
