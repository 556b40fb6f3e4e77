package wpa_test

import (
	"bytes"
	"reflect"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	"propeller/internal/layoutfile"
	"propeller/internal/profile"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// countedStats is a result's Stats without what legitimately differs
// between two sources of the same samples: the walls, and the residency
// each kind documents (one sample for a Wire source, the profile's size
// for a Samples source).
func countedStats(st wpa.Stats) wpa.Stats {
	st.AggregateWall, st.MergeWall, st.LayoutWall, st.AnalysisSeconds = 0, 0, 0, 0
	st.ProfileBytes, st.ModeledBytes = 0, 0
	return st
}

// FuzzAnalyzeWire is the analysis door's wire-side property, and the entry
// point of the stale-profile fuzzer: arbitrary bytes analyzed as a Wire
// source against the tiny workload's metadata binary, and the same bytes
// read whole by profile.Read and analyzed as a Samples source, must both be
// refused, or both accepted with the same rendered cc_prof/ld_prof and the
// same counted Stats. The two readers agree on what parses: the windowed
// decoder the Wire source reads through and the whole-payload one both
// reject truncation, over-deep samples and trailing bytes. The one
// difference is when, not whether: a Wire source refuses a foreign build ID
// from the header alone, before its body is read, so a foreign profile with
// a corrupt body is refused for its build ID on one side and for its body
// on the other. The seeds are a real tiny profile, the same profile
// truncated, and the same profile under a foreign build ID (also checked
// in under testdata/fuzz/FuzzAnalyzeWire).
func FuzzAnalyzeWire(f *testing.F) {
	prog, err := workload.Generate(workload.Tiny())
	if err != nil {
		f.Fatal(err)
	}
	pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	prof, _, err := core.CollectProfile(pm.Binary, core.RunSpec{MaxInsts: 3_000_000, LBRPeriod: 20011}, false)
	if err != nil {
		f.Fatal(err)
	}
	seed := prof.AppendWire(nil)
	f.Add(seed)
	f.Add(seed[:len(seed)*2/3])
	foreign := *prof
	foreign.BuildID = "0123456789abcdef0123"
	f.Add(foreign.AppendWire(nil))

	loadMap := func() (*bbaddrmap.Map, error) { return bbaddrmap.Decode(pm.Binary.BBAddrMap) }
	cfg := wpa.Config{Workers: 1, BuildID: pm.Binary.BuildID}
	if res, err := wpa.Analyze(loadMap, wpa.Samples(prof), cfg); err != nil || len(res.Directives) == 0 {
		f.Fatalf("the real seed lays out nothing (%v): the fuzzer would only see refusals", err)
	}
	rendered := func(t *testing.T, res *wpa.Result) []byte {
		var buf bytes.Buffer
		if err := layoutfile.WriteDirectives(&buf, res.Directives); err != nil {
			t.Fatal(err)
		}
		if err := layoutfile.WriteOrder(&buf, res.Order); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wire, wireErr := wpa.Analyze(loadMap, wpa.Wire(bytes.NewReader(data)), cfg)
		read, readErr := profile.Read(bytes.NewBuffer(data))
		var mem *wpa.Result
		if readErr == nil {
			mem, readErr = wpa.Analyze(loadMap, wpa.Samples(read), cfg)
		}
		if (wireErr == nil) != (readErr == nil) {
			t.Fatalf("wire source: %v; read whole: %v", wireErr, readErr)
		}
		if wireErr != nil {
			return
		}
		if !bytes.Equal(rendered(t, wire), rendered(t, mem)) {
			t.Fatal("the wire source's artifacts differ from the whole read's")
		}
		if w, m := countedStats(wire.Stats), countedStats(mem.Stats); !reflect.DeepEqual(w, m) {
			t.Fatalf("counted stats differ\nwire %+v\nread %+v", w, m)
		}
	})
}
