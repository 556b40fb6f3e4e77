package wpa

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/codegen"
	"propeller/internal/exttsp"
	"propeller/internal/linker"
	"propeller/internal/objfile"
	"propeller/internal/sim"
	"propeller/internal/testprog"
)

// TestLayoutPolicyKeyCoversParams walks exttsp.Params by reflection and
// perturbs one field at a time: every perturbation must change
// layoutPolicyKey. Adding a Params field without keying it would make
// the incremental cache serve one policy's layouts to another — this
// test fails the moment such a field appears.
func TestLayoutPolicyKeyCoversParams(t *testing.T) {
	base := Config{}.layoutPolicyKey()
	pt := reflect.TypeOf(exttsp.Params{})
	for i := 0; i < pt.NumField(); i++ {
		f := pt.Field(i)
		var p exttsp.Params
		pv := reflect.ValueOf(&p).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Float64:
			pv.SetFloat(0.777 + float64(i))
		case reflect.Int, reflect.Int64:
			pv.SetInt(31337 + int64(i))
		default:
			t.Fatalf("Params.%s has kind %v: teach this test to perturb it and key it in layoutPolicyKey", f.Name, f.Type.Kind())
		}
		if got := (Config{Policy: Policy{ExtTSP: p}}).layoutPolicyKey(); got == base {
			t.Errorf("layoutPolicyKey ignores Params.%s (key %q)", f.Name, got)
		}
	}
}

// TestLayoutPolicyKeyNormalizesDefaults: a zero Params and the paper
// defaults spelled out produce identical layouts, so they must share one
// cache key.
func TestLayoutPolicyKeyNormalizesDefaults(t *testing.T) {
	explicit := Config{Policy: Policy{ExtTSP: exttsp.Params{
		FallthroughWeight: exttsp.FallthroughWeight,
		ForwardWeight:     exttsp.ForwardWeight,
		BackwardWeight:    exttsp.BackwardWeight,
		ForwardWindow:     exttsp.ForwardWindow,
		BackwardWindow:    exttsp.BackwardWindow,
	}}}
	if a, b := (Config{}).layoutPolicyKey(), explicit.layoutPolicyKey(); a != b {
		t.Errorf("zero Params key %q != explicit-defaults key %q", a, b)
	}
}

// TestLayoutPolicyKeyCoversPolicyKnobs: the non-Params policy knobs added
// for the default layout policies must be keyed too.
func TestLayoutPolicyKeyCoversPolicyKnobs(t *testing.T) {
	base := Config{}.layoutPolicyKey()
	if got := (Config{Policy: Policy{KeepBlockOrder: true}}).layoutPolicyKey(); got == base {
		t.Error("layoutPolicyKey ignores KeepBlockOrder")
	}
	pcEmpty := Config{Policy: Policy{PathClone: true}}.layoutPolicyKey()
	if pcEmpty == base {
		t.Error("layoutPolicyKey ignores PathClone")
	}
	withPaths := Config{Policy: Policy{PathClone: true}, HotPaths: PathSet{
		"foo": {{Blocks: []int{0, 1, 3}, Count: 9}},
	}}.layoutPolicyKey()
	if withPaths == pcEmpty {
		t.Error("layoutPolicyKey ignores the hot-path contents")
	}
}

// TestCacheNeverAliasesAcrossParams runs two analyses with different
// Ext-TSP params through one shared cache under one profile epoch: the
// second run must not be served the first run's layouts.
func TestCacheNeverAliasesAcrossParams(t *testing.T) {
	m, prof := synthMap(), synthProfile(50)
	cache := buildsys.NewCache()
	mk := func(p exttsp.Params) Config {
		return Config{Cache: cache, ProfileEpoch: "e1", Policy: Policy{ExtTSP: p}}
	}
	want := func(p exttsp.Params) *Result {
		res, err := Analyze(held(m), Samples(prof), Config{Policy: Policy{ExtTSP: p}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Extreme backward preference: within the 4-block synthetic function
	// the parameters may or may not flip the layout; the contract under
	// test is only that cached output == uncached output per-params.
	swept := exttsp.Params{ForwardWeight: 0.9, BackwardWeight: 0.0001, ForwardWindow: 8192}
	for _, p := range []exttsp.Params{{}, swept} {
		fresh := want(p)
		cachedRes, err := Analyze(held(m), Samples(prof), mk(p))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cachedRes.Directives, fresh.Directives) {
			t.Errorf("params %+v: cached directives %v != uncached %v", p, cachedRes.Directives, fresh.Directives)
		}
		// Run again warm: a same-params hit must still match.
		warm, err := Analyze(held(m), Samples(prof), mk(p))
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Stats.GlobalCacheHit {
			t.Errorf("params %+v: second run missed the global layout cache", p)
		}
		if !reflect.DeepEqual(warm.Directives, fresh.Directives) {
			t.Errorf("params %+v: warm directives diverged", p)
		}
	}
}

// TestCacheEntryFormatsGolden is the in-package half of integration's
// TestWireFormatsGolden: the two cache-entry formats with no exported
// encoder — every per-function WFL1 entry and the WGA1 artifact pair the
// incremental analysis of testprog's multi-module program publishes, read
// back out of its cache — and the per-function cache keys they sit under
// (contentHash feeds them), pinned to hashes taken before the codecs moved
// onto internal/wire. The keys' hash was taken again when they lost their
// naive= term, the retrieval switch that no longer exists.
func TestCacheEntryFormatsGolden(t *testing.T) {
	var objs []*objfile.Object
	for _, mod := range testprog.MultiModule() {
		obj, err := codegen.Compile(mod, codegen.Options{Mode: codegen.ModeLabels, DataInCode: true})
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
	}
	bin, _, err := linker.Link(objs, linker.Config{EmitAddrMap: true})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := sim.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mach.Run(sim.Config{MaxInsts: 20_000_000, LBRPeriod: 211})
	if err != nil {
		t.Fatal(err)
	}
	m, err := bbaddrmap.Decode(bin.BBAddrMap)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cache: buildsys.NewCache(), ProfileEpoch: "golden"}
	res, err := Analyze(held(m), Samples(run.Profile), cfg)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := funcInfos(m, everyFunc)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(infos))
	for fn := range infos {
		names = append(names, fn)
	}
	sort.Strings(names)
	wfl, keys, laidOut := sha256.New(), sha256.New(), 0
	for _, fn := range names {
		key := funcLayoutCacheKey(cfg.ProfileEpoch, cfg.funcPolicyKey(fn), infos[fn].contentHash())
		keys.Write([]byte(key))
		data, ok := cfg.Cache.Get(key)
		if !ok {
			continue
		}
		if o, err := decodeLayoutEntry(data); err != nil {
			t.Fatalf("%s: %v", fn, err)
		} else if !o.skip {
			laidOut++
		}
		wfl.Write(data)
	}
	if laidOut == 0 {
		t.Fatal("no function was laid out: the WFL1 hash would cover skip markers only")
	}
	wga, err := encodeArtifacts(res)
	if err != nil {
		t.Fatal(err)
	}
	wgaSum := sha256.Sum256(wga)
	if got, want := hex.EncodeToString(wfl.Sum(nil)), "722ba45b3d8bd6a5845fd9bc3fc954b1475fe1f6050eca5d256005f3076aaf4e"; got != want {
		t.Errorf("WFL1 entries: sha256 %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(keys.Sum(nil)), "444fe461fee7904c64c94bd9849ae215c99d0dd469cf310b4b2fa087536cf9c9"; got != want {
		t.Errorf("per-function layout cache keys: sha256 %s, want %s", got, want)
	}
	if got, want := hex.EncodeToString(wgaSum[:]), "166820743a2361f5e4646c2bb14079c372906665c71a7c4c6789864f733944b2"; got != want {
		t.Errorf("WGA1 entry: sha256 %s, want %s", got, want)
	}
}
