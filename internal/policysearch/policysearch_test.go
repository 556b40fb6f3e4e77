package policysearch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"propeller/internal/eval"
	"propeller/internal/exttsp"
	"propeller/internal/wpa"
)

// fakeEval is a synthetic fitness surface with a known structure: the
// base optimum sits at ForwardWeight 0.3 (away from every fixed
// policy), KeepBlockOrder globally hurts, and a KeepBlockOrder override
// on the hottest function helps — so a working search must beat the
// best fixed policy, and only per-function mixing reaches the floor.
type fakeEval struct {
	full uint64
}

func (f *fakeEval) FullInsts() uint64       { return f.full }
func (f *fakeEval) BaselineCycles() uint64  { return 2_000_000 }
func (f *fakeEval) HotFuncs(n int) []string { return []string{"hot0", "hot1"}[:min(n, 2)] }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (f *fakeEval) EvaluateInsts(pol eval.LayoutPolicy, insts uint64) (eval.LayoutCell, error) {
	p := pol.ExtTSP.Resolve()
	score := 1_000_000.0
	score += 50_000 * math.Abs(math.Log(p.ForwardWeight/0.3))
	if pol.KeepBlockOrder {
		score += 30_000
	}
	if pol.PathClone {
		score += 10_000
	}
	if fp, ok := pol.FuncPolicies["hot0"]; ok {
		if fp.KeepBlockOrder && !fp.PathClone {
			score -= 20_000
		} else {
			score += 5_000
		}
	}
	if fp, ok := pol.FuncPolicies["hot1"]; ok && fp.PathClone {
		score += 5_000
	}
	// Cheap fidelity scales cycles but preserves the ranking, like a
	// truncated simulation.
	cycles := uint64(score * float64(insts) / float64(f.full))
	return eval.LayoutCell{Workload: "fake", Policy: pol.Name, Cycles: cycles}, nil
}

func fakeWorkloads() []WorkloadEvaluator {
	return []WorkloadEvaluator{
		{Name: "fake-a", Ev: &fakeEval{full: 1 << 20}},
		{Name: "fake-b", Ev: &fakeEval{full: 1 << 20}},
	}
}

// TestSearchBeatsBestFixed: on the synthetic surface the learned policy
// must satisfy the structural contract (never worse than the best fixed
// policy) and actually find the strict improvement that exists.
func TestSearchBeatsBestFixed(t *testing.T) {
	res, err := Search(Config{Seed: 42, Workers: 2}, fakeWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	smoke := res.SmokeCheck(2)
	if !smoke.NeverWorse {
		t.Error("learned policy regressed below the best fixed policy")
	}
	if smoke.StrictWins != 2 {
		t.Errorf("strict wins = %d, want 2 (surface has improvements on both workloads)", smoke.StrictWins)
	}
	if !smoke.OK {
		t.Errorf("smoke not OK: %+v", smoke)
	}
	for _, w := range res.Workloads {
		if len(w.Stats.Trajectory) == 0 {
			t.Errorf("%s: empty trajectory", w.Workload)
		}
		if w.Stats.FullEvals == 0 || w.Stats.CheapEvals == 0 {
			t.Errorf("%s: expected both full and cheap evaluations, got %+v", w.Workload, w.Stats)
		}
		if w.Stats.Pruned == 0 {
			t.Errorf("%s: successive halving pruned nothing", w.Workload)
		}
	}
}

// TestSearchDeterministicAcrossWorkers: a fixed seed must produce a
// byte-identical journal (and therefore table and fingerprint) at every
// worker count.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	var firstJSON []byte
	var firstFP string
	for _, w := range counts {
		res, err := Search(Config{Seed: 7, Workers: w}, fakeWorkloads())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteBenchJSON(&buf, 2); err != nil {
			t.Fatal(err)
		}
		if w == counts[0] {
			firstJSON, firstFP = buf.Bytes(), res.Fingerprint()
			continue
		}
		if !bytes.Equal(buf.Bytes(), firstJSON) {
			t.Errorf("workers=%d: BENCH_search.json diverged from workers=%d", w, counts[0])
		}
		if fp := res.Fingerprint(); fp != firstFP {
			t.Errorf("workers=%d: fingerprint %s != %s", w, fp, firstFP)
		}
	}
	// Different seeds must explore differently (guards against a search
	// that ignores its RNG entirely).
	other, err := Search(Config{Seed: 8, Workers: 1}, fakeWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == firstFP {
		t.Error("seeds 7 and 8 produced identical journals")
	}
}

// TestStrategySubset: each strategy must run standalone and respect the
// structural never-worse contract on its own.
func TestStrategySubset(t *testing.T) {
	for _, name := range StrategyNames() {
		res, err := Search(Config{Seed: 3, Workers: 2, Strategies: []string{name}}, fakeWorkloads())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := res.SmokeCheck(0); !s.NeverWorse {
			t.Errorf("%s: regressed below best fixed policy", name)
		}
		for _, w := range res.Workloads {
			if name == "halving" && w.Stats.Pruned == 0 {
				t.Errorf("halving pruned nothing on %s", w.Workload)
			}
			if name == "evolve" && w.Stats.Generations == 0 {
				t.Errorf("evolve ran no generations on %s", w.Workload)
			}
		}
	}
}

// TestMemoDedupes: re-proposing an identical candidate must hit the
// memo, not re-evaluate.
func TestMemoDedupes(t *testing.T) {
	st := &SearchStats{}
	p := &pool{ev: &fakeEval{full: 1 << 20}, workers: 2, full: 1 << 20, stats: st, memo: map[string]Outcome{}}
	c := Candidate{Policy: eval.LayoutPolicy{Name: "a"}, Origin: "fixed"}
	same := Candidate{Policy: eval.LayoutPolicy{Name: "renamed-a"}, Origin: "mutate"}
	if _, err := p.evalBatch([]Candidate{c}, p.full); err != nil {
		t.Fatal(err)
	}
	outs, err := p.evalBatch([]Candidate{same}, p.full)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1 (same policy under a new name)", st.CacheHits)
	}
	if outs[0].Candidate.Policy.Name != "renamed-a" {
		t.Errorf("memo hit must keep the caller's candidate label, got %q", outs[0].Candidate.Policy.Name)
	}
	if st.FullEvals != 1 {
		t.Errorf("full evals = %d, want 1", st.FullEvals)
	}

	// The memo key must ignore Name and nothing else: walk LayoutPolicy by
	// reflection (into the base Policy and one FuncPolicies override), perturb one
	// field at a time, and require every perturbation to yield a key of
	// its own. A policy field added without reaching the key would make
	// the memo serve one policy's measurement to another.
	var pol eval.LayoutPolicy
	seen := map[string]string{p.memoKey(Candidate{}, 1): "zero policy"}
	check := func(path string) {
		key := p.memoKey(Candidate{Policy: pol}, 1)
		prev, dup := seen[key]
		if path == ".Name" {
			if !dup {
				t.Errorf("memo key depends on %s", path)
			}
			return
		}
		if dup {
			t.Errorf("memo key does not separate %s from %s (key %s)", path, prev, key)
		}
		seen[key] = path
	}
	var walk func(v reflect.Value, path string, check func(string))
	walk = func(v reflect.Value, path string, check func(string)) {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
			check(path)
		case reflect.Float64:
			v.SetFloat(0.777)
			check(path)
		case reflect.Int, reflect.Int64:
			v.SetInt(31337)
			check(path)
		case reflect.String:
			v.SetString("x")
			check(path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name, check)
			}
			return
		case reflect.Map:
			// One override: first empty, then each of its fields in turn.
			elem := reflect.New(v.Type().Elem()).Elem()
			withElem := func(path string) {
				m := reflect.MakeMap(v.Type())
				m.SetMapIndex(reflect.ValueOf("f"), elem)
				v.Set(m)
				check(path)
			}
			withElem(path + "[f]")
			walk(elem, path+"[f]", withElem)
		default:
			t.Fatalf("%s has kind %v: teach this walk to perturb it", path, v.Kind())
		}
		v.Set(reflect.Zero(v.Type()))
	}
	walk(reflect.ValueOf(&pol).Elem(), "", check)
}

// TestPolicyTableRoundTrip: the learned table survives its file format.
func TestPolicyTableRoundTrip(t *testing.T) {
	res, err := Search(Config{Seed: 1, Workers: 1}, fakeWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	var buf bytes.Buffer
	if err := table.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, table) {
		t.Errorf("table round-trip diverged:\n got %+v\nwant %+v", *got, table)
	}
	if _, ok := got.For("fake-a"); !ok {
		t.Error("table missing workload fake-a")
	}
	if _, err := ReadTable(bytes.NewReader([]byte(`{"version":"nope","workloads":{"x":{}}}`))); err == nil {
		t.Error("ReadTable accepted a wrong version")
	}
	buf.Reset()
	if err := table.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.String()
	for _, tail := range []string{"x", "{}", file, " \n\t 0", "]"} {
		if _, err := ReadTable(strings.NewReader(file + tail)); err == nil {
			t.Errorf("ReadTable accepted a table followed by %q", tail)
		}
	}
	if _, err := ReadTable(strings.NewReader(" " + file + " \r\n\t ")); err != nil {
		t.Errorf("ReadTable rejected a table wrapped in white space: %v", err)
	}
}

// TestPolicyJSONGolden pins the policy JSON that layout tables and the
// search's memo keys are made of: the default policies, a policy with
// every field set and the table a seeded search learns, with per-function
// overrides, are byte-identical to testdata/policy_json.golden, written
// when the base policy's fields were LayoutPolicy's own. A renamed or
// reordered field of the embedded wpa.Policy fails here.
func TestPolicyJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(eval.DefaultLayoutPolicies()); err != nil {
		t.Fatal(err)
	}
	every := eval.LayoutPolicy{
		Name:      "every-field",
		InterProc: true,
		Policy: wpa.Policy{KeepBlockOrder: true, PathClone: true, ExtTSP: exttsp.Params{
			FallthroughWeight: 1.5, ForwardWeight: 0.25, BackwardWeight: 0.125, ForwardWindow: 512, BackwardWindow: 256,
		}},
		FuncPolicies: map[string]wpa.Policy{
			"f": {KeepBlockOrder: true, PathClone: true, ExtTSP: exttsp.Params{ForwardWeight: 0.5, BackwardWindow: 64}},
			"g": {},
		},
	}
	if err := enc.Encode(every); err != nil {
		t.Fatal(err)
	}
	res, err := Search(Config{Seed: 1, Workers: 1}, fakeWorkloads())
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	overrides := 0
	for _, pol := range table.Workloads {
		overrides += len(pol.FuncPolicies)
	}
	if overrides == 0 {
		t.Fatal("the learned table has no per-function override to pin")
	}
	if err := table.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/policy_json.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("policy JSON moved:\n got %s\nwant %s", got, want)
	}
}

// failEval is fakeEval with a failure for chosen ForwardWeights; a lower
// weight sleeps longer, so the lower-index failure finishes last.
type failEval struct {
	fakeEval
	fail map[float64]bool
}

func (f *failEval) EvaluateInsts(pol eval.LayoutPolicy, insts uint64) (eval.LayoutCell, error) {
	w := pol.ExtTSP.ForwardWeight
	time.Sleep(time.Duration((1-w)*400) * time.Microsecond)
	if f.fail[w] {
		return eval.LayoutCell{}, fmt.Errorf("weight %g failed", w)
	}
	return f.fakeEval.EvaluateInsts(pol, insts)
}

// TestEvalBatchLowestFailureAmongMemoHits: a batch that mixes memo hits
// with two failing evaluations reports the lower-index failure at every
// worker count and commits nothing.
func TestEvalBatchLowestFailureAmongMemoHits(t *testing.T) {
	cand := func(i int) Candidate {
		return Candidate{Policy: eval.LayoutPolicy{Name: fmt.Sprint(i), Policy: wpa.Policy{ExtTSP: exttsp.Params{ForwardWeight: 0.1 * float64(i+1)}}}}
	}
	for _, workers := range []int{1, 2, 8} {
		ev := &failEval{fakeEval: fakeEval{full: 1 << 20}, fail: map[float64]bool{}}
		p := &pool{ev: ev, workers: workers, full: 1 << 20, stats: &SearchStats{}, memo: map[string]Outcome{}}
		if _, err := p.evalBatch([]Candidate{cand(0), cand(2), cand(5)}, p.full); err != nil {
			t.Fatal(err)
		}
		var cands []Candidate
		for i := 0; i < 8; i++ {
			cands = append(cands, cand(i))
		}
		ev.fail[cands[3].Policy.ExtTSP.ForwardWeight] = true
		ev.fail[cands[6].Policy.ExtTSP.ForwardWeight] = true
		want := fmt.Sprintf("weight %g failed", cands[3].Policy.ExtTSP.ForwardWeight)
		for round := 0; round < 5; round++ {
			_, err := p.evalBatch(cands, p.full)
			if err == nil || err.Error() != want {
				t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
			}
		}
		if len(p.memo) != 3 || p.stats.FullEvals != 3 || p.best == nil || p.best.Candidate.Policy.Name != "2" {
			t.Fatalf("workers=%d: a failed batch committed: memo %d, full evals %d, best %+v", workers, len(p.memo), p.stats.FullEvals, p.best)
		}
	}
}
