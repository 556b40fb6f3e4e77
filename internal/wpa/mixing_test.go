package wpa

import (
	"reflect"
	"testing"

	"propeller/internal/buildsys"
	"propeller/internal/exttsp"
)

// TestLayoutPolicyKeyCoversFuncPolicies extends the reflection guard to
// the per-function policy map: every Policy field, perturbed on a
// single function's override, must change both the global layoutPolicyKey
// and that function's funcPolicyKey. A future mixing knob that skips the
// cache key would let the incremental cache serve one policy's layout to
// another — this test fails the moment such a field appears.
func TestLayoutPolicyKeyCoversFuncPolicies(t *testing.T) {
	baseCfg := Config{FuncPolicies: map[string]Policy{"foo": {}}}
	baseGlobal := baseCfg.layoutPolicyKey()
	baseFunc := baseCfg.funcPolicyKey("foo")

	// An override map with only zero-valued entries must still key
	// differently from no overrides at all for the global artifact...
	if noMap := (Config{}).layoutPolicyKey(); noMap == baseGlobal {
		t.Error("layoutPolicyKey ignores the presence of a FuncPolicies override")
	}
	// ...but the per-function key must depend only on the effective
	// policy, so a zero override and no override share per-func entries.
	if noMap := (Config{}).funcPolicyKey("foo"); noMap != baseFunc {
		t.Errorf("funcPolicyKey for a zero override %q != base policy %q", baseFunc, noMap)
	}

	ft := reflect.TypeOf(Policy{})
	for i := 0; i < ft.NumField(); i++ {
		f := ft.Field(i)
		var fp Policy
		fv := reflect.ValueOf(&fp).Elem().Field(i)
		switch f.Type.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Float64:
			fv.SetFloat(0.777 + float64(i))
		case reflect.Int, reflect.Int64:
			fv.SetInt(31337 + int64(i))
		case reflect.Struct:
			if f.Type != reflect.TypeOf(exttsp.Params{}) {
				t.Fatalf("Policy.%s has unknown struct type %v: teach this test to perturb it", f.Name, f.Type)
			}
			fv.Set(reflect.ValueOf(exttsp.Params{FallthroughWeight: 0.777 + float64(i)}))
		default:
			t.Fatalf("Policy.%s has kind %v: teach this test to perturb it and key it in policyKey", f.Name, f.Type.Kind())
		}
		cfg := Config{FuncPolicies: map[string]Policy{"foo": fp}}
		if got := cfg.layoutPolicyKey(); got == baseGlobal {
			t.Errorf("layoutPolicyKey ignores Policy.%s (key %q)", f.Name, got)
		}
		if got := cfg.funcPolicyKey("foo"); got == baseFunc {
			t.Errorf("funcPolicyKey ignores Policy.%s (key %q)", f.Name, got)
		}
		// An override on foo must not invalidate bar's per-func entries.
		if got := cfg.funcPolicyKey("bar"); got != (Config{}).funcPolicyKey("bar") {
			t.Errorf("funcPolicyKey(bar) changed when only foo's override moved (Policy.%s)", f.Name)
		}
	}
}

// TestFuncPolicyMixingMatchesGlobal: assigning a policy to one function
// through FuncPolicies must reproduce exactly the directive that policy
// produces when set globally, while the untouched function keeps the base
// policy's directive — mixing composes per function.
func TestFuncPolicyMixingMatchesGlobal(t *testing.T) {
	m, prof := synthMap(), synthProfile(50)
	analyze := func(cfg Config) *Result {
		res, err := Analyze(held(m), Samples(prof), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := analyze(Config{})
	keep := analyze(Config{Policy: Policy{KeepBlockOrder: true}})
	if reflect.DeepEqual(base.Directives["foo"], keep.Directives["foo"]) {
		t.Skip("synthetic profile no longer distinguishes KeepBlockOrder; rebuild the fixture")
	}
	mixed := analyze(Config{FuncPolicies: map[string]Policy{"foo": {KeepBlockOrder: true}}})
	if !reflect.DeepEqual(mixed.Directives["foo"], keep.Directives["foo"]) {
		t.Errorf("foo under per-func KeepBlockOrder = %+v, want global-KeepBlockOrder layout %+v",
			mixed.Directives["foo"], keep.Directives["foo"])
	}
	if !reflect.DeepEqual(mixed.Directives["bar"], base.Directives["bar"]) {
		t.Errorf("bar should keep the base layout under foo's override: %+v != %+v",
			mixed.Directives["bar"], base.Directives["bar"])
	}
	if !reflect.DeepEqual(mixed.Order, base.Order) {
		t.Errorf("global symbol order must not move under intra-function mixing: %v != %v",
			mixed.Order, base.Order)
	}
}

// TestFuncPolicyCacheNoAliasing runs base and mixed configs through one
// shared cache: the mixed run must not be served the base run's layout
// for the overridden function, and a warm repeat of each config must hit
// its own entries and reproduce its own directives.
func TestFuncPolicyCacheNoAliasing(t *testing.T) {
	m, prof := synthMap(), synthProfile(50)
	cache := buildsys.NewCache()
	configs := []Config{
		{},
		{FuncPolicies: map[string]Policy{"foo": {KeepBlockOrder: true}}},
	}
	for _, cfg := range configs {
		fresh, err := Analyze(held(m), Samples(prof), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache, cfg.ProfileEpoch = cache, "e1"
		cold, err := Analyze(held(m), Samples(prof), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Directives, fresh.Directives) {
			t.Errorf("config %+v: cached directives diverged from uncached", cfg.FuncPolicies)
		}
		warm, err := Analyze(held(m), Samples(prof), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Stats.GlobalCacheHit {
			t.Errorf("config %+v: warm run missed the global layout cache", cfg.FuncPolicies)
		}
		if !reflect.DeepEqual(warm.Directives, fresh.Directives) {
			t.Errorf("config %+v: warm directives diverged", cfg.FuncPolicies)
		}
	}
	// Cross-config warm reuse: a third config that overrides only bar
	// must still reuse foo's per-func entry from the base run.
	cfg := Config{
		Cache: cache, ProfileEpoch: "e1",
		FuncPolicies: map[string]Policy{"bar": {ExtTSP: exttsp.Params{ForwardWeight: 0.9}}},
	}
	res, err := Analyze(held(m), Samples(prof), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GlobalCacheHit {
		t.Fatal("new override table should miss the global layout cache")
	}
	if res.Stats.FuncLayoutHits == 0 {
		t.Error("overriding only bar should still reuse foo's per-func layout entry")
	}
}
