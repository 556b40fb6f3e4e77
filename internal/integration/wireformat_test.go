package integration_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/codegen"
	"propeller/internal/ir"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/sim"
	"propeller/internal/testprog"
	"propeller/internal/wpa"
)

// TestWireFormatsGolden pins the bytes of every wire format the pipeline
// caches or ships, for testprog's multi-module program plus the fixtures
// that reach the remaining IR fields (landing pads, initialised globals,
// code snapshots, jump tables). The hashes were taken before the codecs
// moved onto internal/wire; they change only when a format does, which
// moves every cache key and cached byte string with it. bench_baselines/
// sees such a change only if an encoded length moves. The two unexported
// cache-entry formats (WFL1, WGA1) are pinned by wpa's
// TestCacheEntryFormatsGolden over the same program.
func TestWireFormatsGolden(t *testing.T) {
	mods := testprog.MultiModule()
	extras := []*ir.Module{testprog.Exceptions(9), testprog.Globals(), testprog.Integrity(10), testprog.Switch(8)}

	got := map[string]string{}
	sum := func(name string, chunks ...[]byte) {
		h := sha256.New()
		for _, c := range chunks {
			h.Write(c)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	compile := func(ms []*ir.Module, co codegen.Options) (objs []*objfile.Object, enc [][]byte) {
		for _, m := range ms {
			obj, err := codegen.Compile(m, co)
			if err != nil {
				t.Fatalf("compile %s: %v", m.Name, err)
			}
			objs = append(objs, obj)
			enc = append(enc, objfile.EncodeObject(obj))
		}
		return objs, enc
	}

	all := append(append([]*ir.Module(nil), mods...), extras...)
	var irs [][]byte
	for _, m := range all {
		irs = append(irs, ir.EncodeModule(m))
	}
	sum("ir", irs...)
	_, base := compile(all, codegen.Options{Mode: codegen.ModeNone, DataInCode: true})
	sum("obj-base", base...)
	_, labels := compile(extras, codegen.Options{Mode: codegen.ModeLabels, DataInCode: true})
	pmObjs, pmEnc := compile(mods, codegen.Options{Mode: codegen.ModeLabels, DataInCode: true})
	sum("obj-labels", append(pmEnc, labels...)...)

	bin, _, err := linker.Link(pmObjs, linker.Config{EmitAddrMap: true})
	if err != nil {
		t.Fatal(err)
	}
	sum("binary", objfile.EncodeBinary(bin))
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	sum("bbaddrmap", bbaddrmap.Encode(m))

	mach, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mach.Run(sim.Config{MaxInsts: 20_000_000, LBRPeriod: 211})
	if err != nil {
		t.Fatal(err)
	}
	sum("profile", run.Profile.AppendWire(nil))

	agg, err := wpa.BuildAggregate(m, run.Profile, wpa.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum("aggregate", wpa.EncodeAggregate(agg))
	res, err := wpa.AnalyzeAggregate(m, agg, wpa.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Directives) == 0 {
		t.Fatal("no directives: the ModeList objects would equal the base ones")
	}
	_, list := compile(mods, codegen.Options{Mode: codegen.ModeList, Directives: res.Directives, DataInCode: true})
	sum("obj-list", list...)

	for name, want := range map[string]string{
		"ir":         "f01908b402b075f1455dd0c656d965479e44863b6f25b8714a1af83f87d52674",
		"obj-base":   "88b5978aa801fed3b1de9843e587d0e3f3a7eaa0df90505f2380c89ada9a07eb",
		"obj-labels": "4539aae3f6c53edebba74b382652ac36779aec06d63b9d1a174d40350cf2e4ea",
		"obj-list":   "516b4cc2c0961d503f789f09cdcb7b48707bffab24aeddd7bd2614416b058013",
		"binary":     "0073e574fcbf266831b4293d165e9cdb583123147d575fc3f1095938b6eb6baa",
		"bbaddrmap":  "80d32a9ac9a098550745b20f3481fa23209560e3cc81aa1f34689dab5c25d946",
		"profile":    "48e19240d6358336635526d1592ef7eb12cfc82729145de5e224f73fb9a48dce",
		"aggregate":  "1792a77265287086d2de0fb47c46b929fa42d22c24f5f5d901e16238ef21c025",
	} {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
}
