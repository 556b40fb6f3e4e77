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
	"encoding/hex"
	"fmt"
	"sort"

	"propeller/internal/buildsys"
	"propeller/internal/layoutfile"
	"propeller/internal/wire"
)

// contentHash fingerprints a function's static shape from the BB address
// map: name, entry block ID, and every block's (id, size) in map order.
// Absolute addresses and block offsets are deliberately excluded (both
// are derived from the blocks that precede a block, so the shape already
// determines them relative to the entry).
func (fi *funcInfo) contentHash() string {
	w := &wire.Writer{Buf: []byte(fi.name)}
	w.I64(int64(fi.entryID))
	w.I64(int64(len(fi.order)))
	for i, id := range fi.order {
		w.I64(int64(id))
		w.I64(fi.sizes[i])
	}
	sum := sha256.Sum256(w.Buf)
	return hex.EncodeToString(sum[:])
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
	w := &wire.Writer{Buf: []byte(layoutEntryMagic)}
	w.Bool(o.skip)
	if o.skip {
		return w.Buf
	}
	w.U64(o.samples)
	w.Int(len(o.cluster))
	for _, id := range o.cluster {
		w.Int(id)
	}
	return w.Buf
}

func decodeLayoutEntry(data []byte) (intraOut, error) {
	r := wire.NewReader("wpa: layout-entry codec", layoutEntryMagic, data)
	o := intraOut{skip: r.Bool()}
	if !o.skip {
		o.samples = r.U64()
		o.cluster = make([]int, r.Count())
		for i := range o.cluster {
			o.cluster[i] = r.Int()
		}
	}
	return o, r.Done()
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
	w := &wire.Writer{Buf: []byte(artifactsMagic)}
	w.Bytes(cc.Bytes())
	w.Bytes(ld.Bytes())
	return w.Buf, nil
}

func decodeArtifacts(data []byte, res *Result) error {
	r := wire.NewReader("wpa: artifact codec", artifactsMagic, data)
	cc, ld := r.Bytes(), r.Bytes()
	if err := r.Done(); err != nil {
		return err
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
