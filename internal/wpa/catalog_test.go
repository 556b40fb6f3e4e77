package wpa_test

import (
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	"propeller/internal/workload"
	"propeller/internal/wpa"
)

// TestAggregateMatchesReference holds the dense kernel to the old
// string-keyed one on what the pipeline actually feeds it: every catalog
// workload's metadata binary and a training profile of it, at 1, 2 and 8
// workers, in memory and streamed, by EncodeAggregate bytes; and the
// reconstructed paths with them. On drainWorkload it does so again with the
// shards' distinct-key bound shrunk to 64 and to 1, so they drain mid-feed
// a real profile's repeated keys, not only the default's single drain.
func TestAggregateMatchesReference(t *testing.T) {
	const drainWorkload = "mysql"
	for _, spec := range workload.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			spec.Requests /= 8 // keeps the uncached reference kernel to a fraction of a second a workload
			prog, err := workload.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := core.BuildWithMetadata(prog.Core, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			prof, _, err := core.CollectProfile(pm.Binary, core.RunSpec{MaxInsts: 400_000_000, LBRPeriod: 211}, false)
			if err != nil {
				t.Fatal(err)
			}
			amap, err := bbaddrmap.Decode(pm.Binary.BBAddrMap)
			if err != nil {
				t.Fatal(err)
			}
			if len(prof.Samples) < 1000 {
				t.Fatalf("only %d samples: the run is too short to say anything", len(prof.Samples))
			}
			prof.BuildID = "" // the check builds its own configs
			if err := wpa.CheckAgainstReference(amap, prof, []int{1, 2, 8}); err != nil {
				t.Fatal(err)
			}
			if spec.Name != drainWorkload {
				return
			}
			for _, bound := range []int{64, 1} {
				restore := wpa.SetKeyBound(bound)
				err := wpa.CheckAgainstReference(amap, prof, []int{1, 2, 8})
				restore()
				if err != nil {
					t.Fatalf("key bound %d: %v", bound, err)
				}
			}
		})
	}
}
