package profile_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"propeller/internal/core"
	"propeller/internal/profile"
	"propeller/internal/workload"
)

// simProfile is what the pipeline actually puts on the wire: a training
// run of the spec's metadata binary at LBR period 211 — chained records
// with realistic deltas, not random addresses.
func simProfile(tb testing.TB, spec workload.Spec) *profile.Profile {
	prog, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	prof, _, err := core.CollectProfile(pm.Binary, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, false)
	if err != nil {
		tb.Fatal(err)
	}
	if len(prof.Samples) < 1000 {
		tb.Fatalf("only %d samples: the run is too short to say anything", len(prof.Samples))
	}
	prof.BuildID = pm.Binary.BuildID
	return prof
}

// matchesReference holds the WPR3 round trip of p to the WPR2 one the tree
// shipped before: same header, same samples, record for record.
func matchesReference(p *profile.Profile) error {
	want, err := profile.RefRead(bytes.NewReader(profile.RefAppendWire(p, nil)))
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	wire := p.AppendWire(nil)
	for name, read := range map[string]func() (*profile.Profile, error){
		"Read":      func() (*profile.Profile, error) { return profile.Read(bytes.NewReader(wire)) },
		"ReadBytes": func() (*profile.Profile, error) { return profile.ReadBytes(wire) },
	} {
		got, err := read()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s differs from the reference decode (%d vs %d samples)", name, len(got.Samples), len(want.Samples))
		}
	}
	return nil
}

// TestDecodeMatchesReference: for simulator-made profiles of the catalog
// shapes and for TestRoundTripProperty's random ones, decoding the new wire
// equals decoding the old one, sample for sample.
func TestDecodeMatchesReference(t *testing.T) {
	for _, spec := range workload.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			spec.Requests /= 8
			p := simProfile(t, spec)
			if err := matchesReference(p); err != nil {
				t.Fatal(err)
			}
			old, now := len(profile.RefAppendWire(p, nil)), len(p.AppendWire(nil))
			t.Logf("%d samples: %d -> %d wire bytes (%.0f%%)", len(p.Samples), old, now, 100*float64(now)/float64(old))
		})
	}
	t.Run("random", func(t *testing.T) {
		f := func(pairs []uint64, period uint64) bool {
			p := &profile.Profile{Binary: "x", Period: period}
			for i := 0; i+1 < len(pairs); i += 2 {
				if i%(2*profile.LBRDepth) == 0 {
					p.Samples = append(p.Samples, profile.Sample{})
				}
				s := &p.Samples[len(p.Samples)-1]
				s.Records = append(s.Records, profile.Branch{From: pairs[i], To: pairs[i+1]})
			}
			if err := matchesReference(p); err != nil {
				t.Log(err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}
