package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"propeller/internal/fleetprof"
	"propeller/internal/layoutfile"
)

// TestFleetStreamingMatchesMaterialized is the collection determinism
// matrix: for a given host count, streaming collection (samples shipped
// while the simulations run) must produce a byte-identical merged profile
// at every (shards, workers, loss, dup) cell — batch identity, the
// transport fault plan and the canonical merge order are functions of
// the sample stream, not of when batches leave the host or which shard
// takes them — and the downstream whole-program analysis must therefore
// emit byte-identical layout artifacts.
func TestFleetStreamingMatchesMaterialized(t *testing.T) {
	meta, err := BuildWithMetadata(multiModuleProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{MaxInsts: 5_000_000, LBRPeriod: 211}

	type cell struct {
		hosts, shards, workers int
		loss, dup              float64
	}
	cells := []cell{
		{hosts: 1, shards: 1, workers: 1},
		{hosts: 4, shards: 1, workers: 1},
		{hosts: 4, shards: 4, workers: 2},
		{hosts: 4, shards: 2, workers: 2, loss: 0.3, dup: 0.15},
		{hosts: 8, shards: 1, workers: 1},
		{hosts: 8, shards: 4, workers: 2, loss: 0.2, dup: 0.1},
	}
	type output struct{ wire, artifacts []byte }
	ref := map[int]output{} // by host count: the first cell's output
	for _, c := range cells {
		name := fmt.Sprintf("hosts=%d/shards=%d/workers=%d/loss=%g/dup=%g",
			c.hosts, c.shards, c.workers, c.loss, c.dup)
		fo := FleetOptions{
			Hosts:           c.hosts,
			Shards:          c.shards,
			WorkersPerShard: c.workers,
			LossRate:        c.loss,
			DupRate:         c.dup,
			Seed:            11,
			BatchSamples:    32,
			// QueueDepth generous so the bounded-retry drop path (which
			// depends on real scheduling) stays out of the identity test.
			QueueDepth: 1024,
		}
		merged, train, st, err := CollectFleetProfile(meta.Binary, spec, fo, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if train == nil {
			t.Fatalf("%s: no training-run result", name)
		}
		if st.AcceptedSamples == 0 {
			t.Fatalf("%s: empty fleet profile", name)
		}
		wres, err := AnalyzeStreamed(meta.Binary, merged, Options{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		var buf bytes.Buffer
		if err := layoutfile.WriteDirectives(&buf, wres.Directives); err != nil {
			t.Fatal(err)
		}
		if err := layoutfile.WriteOrder(&buf, wres.Order); err != nil {
			t.Fatal(err)
		}
		got := output{merged.AppendWire(nil), buf.Bytes()}
		want, ok := ref[c.hosts]
		if !ok {
			ref[c.hosts] = got
			continue
		}
		if !bytes.Equal(got.wire, want.wire) {
			t.Errorf("%s: merged profile differs from the first %d-host cell", name, c.hosts)
		}
		if !bytes.Equal(got.artifacts, want.artifacts) {
			t.Errorf("%s: layout artifacts differ from the first %d-host cell", name, c.hosts)
		}
	}

	// Loss must actually have occurred in the faulted cells, or the
	// matrix is not exercising the transport plan.
	fo := FleetOptions{Hosts: 4, LossRate: 0.3, Seed: 11, BatchSamples: 32, QueueDepth: 1024}
	_, _, st, err := CollectFleetProfile(meta.Binary, spec, fo, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.LostDeliveries == 0 {
		t.Error("loss=0.3 produced no lost deliveries; fault plan not exercised")
	}
}

// TestFleetGateRejectsCorruptAddrMap: a binary with no address map skips
// the gate's hot-function criterion by design; one whose map is present
// but does not decode must fail collection, not open the gate unchecked.
func TestFleetGateRejectsCorruptAddrMap(t *testing.T) {
	meta, err := BuildWithMetadata(multiModuleProgram(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{MaxInsts: 5_000_000, LBRPeriod: 211}
	// More hot functions than the program has: only a skipped criterion
	// lets this gate open.
	fo := FleetOptions{Hosts: 2, Gate: fleetprof.Gate{MinHotFuncs: 1 << 20}}

	if _, _, _, err := CollectFleetProfile(meta.Binary, spec, fo, false); err == nil || !strings.Contains(err.Error(), "hot functions") {
		t.Errorf("intact map: err = %v, want the hot-function criterion to close the gate", err)
	}

	corrupt := meta.Binary.Clone()
	corrupt.BBAddrMap = corrupt.BBAddrMap[:len(corrupt.BBAddrMap)/2]
	if _, _, _, err := CollectFleetProfile(corrupt, spec, fo, false); err == nil || !strings.Contains(err.Error(), "admission gate") {
		t.Errorf("truncated map: err = %v, want the decode failure reported", err)
	}

	noMap := meta.Binary.Clone()
	noMap.BBAddrMap = nil
	if _, _, _, err := CollectFleetProfile(noMap, spec, fo, false); err != nil {
		t.Errorf("no map: err = %v, want the criterion skipped", err)
	}
}
