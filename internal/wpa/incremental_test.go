package wpa

import (
	"bytes"
	"encoding/binary"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/buildsys"
	"propeller/internal/layoutfile"
	"propeller/internal/profile"
)

// artifactBytes renders a result's two Phase-4 artifacts, the quantities
// the incremental cache must reproduce byte-identically.
func artifactBytes(t *testing.T, res *Result) (cc, ld []byte) {
	t.Helper()
	var ccBuf, ldBuf bytes.Buffer
	if err := layoutfile.WriteDirectives(&ccBuf, res.Directives); err != nil {
		t.Fatal(err)
	}
	if err := layoutfile.WriteOrder(&ldBuf, res.Order); err != nil {
		t.Fatal(err)
	}
	return ccBuf.Bytes(), ldBuf.Bytes()
}

func requireSameArtifacts(t *testing.T, want, got *Result, label string) {
	t.Helper()
	wantCC, wantLD := artifactBytes(t, want)
	gotCC, gotLD := artifactBytes(t, got)
	if !bytes.Equal(wantCC, gotCC) {
		t.Fatalf("%s: cc_prof differs\nwant:\n%s\ngot:\n%s", label, wantCC, gotCC)
	}
	if !bytes.Equal(wantLD, gotLD) {
		t.Fatalf("%s: ld_prof differs\nwant:\n%s\ngot:\n%s", label, wantLD, gotLD)
	}
}

// TestIncrementalAnalyzeMatchesCold runs the same analysis cold, then
// warm twice, in both layout modes: the first cached run must populate
// the cache while emitting the cold result; the second must be a full
// hit (aggregate + global layout) and still byte-identical.
func TestIncrementalAnalyzeMatchesCold(t *testing.T) {
	for _, interproc := range []bool{false, true} {
		cold, err := Analyze(held(synthMap()), Samples(synthProfile(50)), Config{InterProc: interproc})
		if err != nil {
			t.Fatal(err)
		}
		cache := buildsys.NewCache()
		cfg := Config{InterProc: interproc, Cache: cache, ProfileEpoch: "epoch-1"}
		warm1, err := Analyze(held(synthMap()), Samples(synthProfile(50)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArtifacts(t, cold, warm1, "first cached run")
		if warm1.Stats.AggregateCacheHit || warm1.Stats.GlobalCacheHit {
			t.Fatalf("interproc=%t: first cached run reported hits: %+v", interproc, warm1.Stats)
		}
		if !interproc && warm1.Stats.FuncLayoutMisses == 0 {
			t.Fatalf("interproc=%t: first cached run recorded no per-function misses", interproc)
		}
		warm2, err := Analyze(held(synthMap()), Samples(synthProfile(50)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArtifacts(t, cold, warm2, "second cached run")
		if !warm2.Stats.AggregateCacheHit || !warm2.Stats.GlobalCacheHit {
			t.Fatalf("interproc=%t: second cached run missed: %+v", interproc, warm2.Stats)
		}
		if warm2.Stats.RelaidFuncs != 0 {
			t.Fatalf("interproc=%t: full hit still relaid %d functions", interproc, warm2.Stats.RelaidFuncs)
		}
	}
}

// editedSynthMap grows bar's block — the "edit": bar's content hash must
// change while foo's stays identical even though bar's growth would have
// shifted every downstream address in a real binary.
func editedSynthMap() *bbaddrmap.Map {
	m := synthMap()
	m.Funcs[1].Blocks[0].Size = 24
	// The edit shifts absolute placement too; the hash must not care.
	m.Funcs[1].Addr = 0x2100
	return m
}

// TestIncrementalEditReusesUnchangedLayouts replays the warm-relink
// scenario: the profile epoch's aggregate was built against the old
// binary, the edited binary re-analyzes under the same epoch, and only
// the edited function re-runs Ext-TSP — byte-identical to a cold layout
// of the same aggregate against the edited map.
func TestIncrementalEditReusesUnchangedLayouts(t *testing.T) {
	agg, err := BuildAggregate(synthMap(), synthProfile(50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cache := buildsys.NewCache()
	cfg := Config{Cache: cache, ProfileEpoch: "epoch-1"}
	if _, err := AnalyzeAggregate(synthMap(), agg, cfg); err != nil {
		t.Fatal(err)
	}
	cold, err := AnalyzeAggregate(editedSynthMap(), agg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := AnalyzeAggregate(editedSynthMap(), agg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameArtifacts(t, cold, warm, "warm after edit")
	if warm.Stats.GlobalCacheHit {
		t.Fatal("edited binary hit the global layout key")
	}
	if warm.Stats.FuncLayoutHits == 0 {
		t.Fatalf("unchanged function did not reuse its layout: %+v", warm.Stats)
	}
	if warm.Stats.FuncLayoutMisses != 1 {
		t.Fatalf("expected exactly the edited function to miss, got %d misses", warm.Stats.FuncLayoutMisses)
	}
}

// TestContentHashPositionIndependence: moving a function (new Addr, new
// offsets implied by an upstream edit) must not change its hash; editing
// its shape must.
func TestContentHashPositionIndependence(t *testing.T) {
	a, err := funcInfos(synthMap())
	if err != nil {
		t.Fatal(err)
	}
	b, err := funcInfos(editedSynthMap())
	if err != nil {
		t.Fatal(err)
	}
	if a["foo"].contentHash() != b["foo"].contentHash() {
		t.Error("foo moved but did not change; hash must be stable")
	}
	if a["bar"].contentHash() == b["bar"].contentHash() {
		t.Error("bar's shape changed; hash must change")
	}
}

// TestAggregateCodecRoundtrip: encode → decode → encode is byte-stable
// and the decoded aggregate lays out identically.
func TestAggregateCodecRoundtrip(t *testing.T) {
	agg, err := BuildAggregate(synthMap(), synthProfile(50), Config{})
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeAggregate(agg)
	dec, err := DecodeAggregate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, EncodeAggregate(dec)) {
		t.Fatal("re-encoding a decoded aggregate changed the bytes")
	}
	want, err := AnalyzeAggregate(synthMap(), agg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeAggregate(synthMap(), dec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameArtifacts(t, want, got, "decoded aggregate")
	// Values past MaxInt would wrap to negative counters and block ids:
	// an otherwise empty aggregate with 2^63 samples, then one function "f"
	// whose only block id is 2^63.
	wrapCounter := binary.AppendUvarint([]byte(aggMagic+"\x00"), 1<<63)
	wrapCounter = append(wrapCounter, 0, 0, 0, 0, 0) // records, edges, calls; no funcs, no calls
	wrapID := binary.AppendUvarint([]byte(aggMagic+"\x00\x00\x00\x00\x00\x01\x01f\x01"), 1<<63)
	wrapID = append(wrapID, 1, 0, 0) // its count, no edges, no calls
	for _, corrupt := range [][]byte{nil, []byte("XXXX"), enc[:len(enc)-1], append(append([]byte(nil), enc...), 0), wrapCounter, wrapID} {
		if _, err := DecodeAggregate(corrupt); err == nil {
			t.Errorf("corrupt input %q... decoded without error", corrupt[:min(8, len(corrupt))])
		}
	}
}

// TestAggregateMergeMatchesConcat: delta ingestion — aggregating two
// profiles separately and merging must equal aggregating their
// concatenation (the property profsvc's delta path relies on).
func TestAggregateMergeMatchesConcat(t *testing.T) {
	p1, p2 := synthProfile(30), synthProfile(20)
	concat := &profile.Profile{Binary: "synth", Period: 1000}
	concat.Samples = append(append(concat.Samples, p1.Samples...), p2.Samples...)

	a1, err := BuildAggregate(synthMap(), p1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := BuildAggregate(synthMap(), p2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := a1.Clone()
	base.Merge(a2)
	all, err := BuildAggregate(synthMap(), concat, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The serialized-profile byte accounting differs (two headers vs
	// one); every profile-derived count must not.
	base.profileBytes = 0
	all.profileBytes = 0
	if !bytes.Equal(EncodeAggregate(base), EncodeAggregate(all)) {
		t.Fatal("merge(a1, a2) != aggregate(p1 ++ p2)")
	}
	// And the clone really was a copy: a1 is still the p1-only aggregate.
	if a1.samples != 30*1 {
		t.Fatalf("Merge mutated the clone source: %d samples", a1.samples)
	}
}

// TestLayoutEntryCodec round-trips both entry shapes and rejects
// corruption.
func TestLayoutEntryCodec(t *testing.T) {
	for _, o := range []intraOut{
		{skip: true},
		{cluster: []int{0, 3, 1}, samples: 123456},
		{cluster: []int{7}, samples: 0},
	} {
		dec, err := decodeLayoutEntry(encodeLayoutEntry(o))
		if err != nil {
			t.Fatal(err)
		}
		if dec.skip != o.skip || dec.samples != o.samples || len(dec.cluster) != len(o.cluster) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", o, dec)
		}
		for i := range o.cluster {
			if dec.cluster[i] != o.cluster[i] {
				t.Fatalf("roundtrip mismatch: %+v vs %+v", o, dec)
			}
		}
	}
	good := encodeLayoutEntry(intraOut{cluster: []int{0, 1}, samples: 9})
	wrapID := binary.AppendUvarint([]byte(layoutEntryMagic+"\x00\x09\x01"), 1<<63) // 9 samples, one block id
	skipThenByte := append(encodeLayoutEntry(intraOut{skip: true}), 0)
	for _, corrupt := range [][]byte{nil, []byte("WFL"), good[:len(good)-1], append(append([]byte(nil), good...), 1), append(append([]byte(nil), good...), 0), skipThenByte, wrapID} {
		if _, err := decodeLayoutEntry(corrupt); err == nil {
			t.Errorf("corrupt layout entry decoded without error")
		}
	}
}

// TestIncrementalWorkerMatrix: the warm path must stay byte-identical
// to serial-cold at every worker count, in both modes, with the edit
// applied (run under -race in CI).
func TestIncrementalWorkerMatrix(t *testing.T) {
	agg, err := BuildAggregate(synthMap(), synthProfile(80), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, interproc := range []bool{false, true} {
		cold, err := AnalyzeAggregate(editedSynthMap(), agg, Config{InterProc: interproc, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 4, 8} {
			cache := buildsys.NewCache()
			cfg := Config{InterProc: interproc, Workers: w, Cache: cache, ProfileEpoch: "e"}
			// Populate from the pre-edit binary, then re-analyze the edit.
			if _, err := AnalyzeAggregate(synthMap(), agg, cfg); err != nil {
				t.Fatal(err)
			}
			warm, err := AnalyzeAggregate(editedSynthMap(), agg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameArtifacts(t, cold, warm, "worker matrix")
		}
	}
}
