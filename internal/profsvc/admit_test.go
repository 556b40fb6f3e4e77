package profsvc

import (
	"strings"
	"testing"

	"propeller/internal/bbaddrmap"
	"propeller/internal/fleetprof"
	"propeller/internal/profile"
)

// testLookup maps two functions at fixed addresses: f at [0x1000,0x1100),
// g at [0x2000,0x2100).
func testLookup() *bbaddrmap.Lookup {
	return bbaddrmap.NewLookup(&bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "f", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
		{Name: "g", Addr: 0x2000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
	}})
}

func addrProf(n int, addrs ...uint64) *profile.Profile {
	p := &profile.Profile{BuildID: "b", Period: 211}
	for i := 0; i < n; i++ {
		recs := make([]profile.Branch, 0, len(addrs))
		for _, a := range addrs {
			recs = append(recs, profile.Branch{From: a, To: a + 4})
		}
		p.Samples = append(p.Samples, profile.Sample{Records: recs})
	}
	return p
}

func TestZeroScorerAdmits(t *testing.T) {
	rep := Scorer{}.Score(addrProf(1, 0x1000), addrProf(1, 0x1000), nil,
		fleetprof.IngestStats{}, 0, nil)
	if !rep.Ready {
		t.Fatalf("zero scorer should admit: %+v", rep)
	}
}

func TestScorerGateCriteria(t *testing.T) {
	sc := Scorer{Gate: fleetprof.Gate{MinSamples: 10}}
	rep := sc.Score(addrProf(3, 0x1000), addrProf(3, 0x1000), nil, fleetprof.IngestStats{AcceptedSamples: 3}, 0, nil)
	if rep.Ready || !strings.Contains(rep.Reason, "samples") {
		t.Fatalf("thin profile should fail the sample criterion: %+v", rep)
	}

	sc = Scorer{Gate: fleetprof.Gate{MinHotFuncs: 2}}
	rep = sc.Score(addrProf(4, 0x1000), addrProf(4, 0x1000), fleetprof.HotFuncs(addrProf(4, 0x1000), testLookup()), fleetprof.IngestStats{}, 0, nil)
	if rep.Ready || rep.HotFuncs != 1 || !strings.Contains(rep.Reason, "hot functions") {
		t.Fatalf("single-function profile should fail MinHotFuncs=2: %+v", rep)
	}

	sc = Scorer{Gate: fleetprof.Gate{MinHostCoverage: 0.9}}
	st := fleetprof.IngestStats{HostBatches: map[int]int64{0: 3, 2: 1}}
	rep = sc.Score(addrProf(4, 0x1000), addrProf(4, 0x1000), nil, st, 4, nil)
	if rep.Ready || rep.HostCoverage != 0.5 || !strings.Contains(rep.Reason, "coverage") {
		t.Fatalf("2/4 hosts should fail MinHostCoverage=0.9: %+v", rep)
	}
}

// TestFreshnessCriterion: an epoch that is a small slice of a big stale
// aggregate is not fresh enough to justify a relink.
func TestFreshnessCriterion(t *testing.T) {
	sc := Scorer{MinFreshness: 0.5}
	epoch := addrProf(10, 0x1000)
	agg := addrProf(100, 0x1000)
	rep := sc.Score(epoch, agg, nil, fleetprof.IngestStats{}, 0, nil)
	if rep.Ready || rep.Freshness != 0.1 || !strings.Contains(rep.Reason, "freshness") {
		t.Fatalf("10/100 samples should fail MinFreshness=0.5: %+v", rep)
	}
	// Epoch == aggregate: fully fresh.
	rep = sc.Score(epoch, epoch, nil, fleetprof.IngestStats{}, 0, nil)
	if !rep.Ready || rep.Freshness != 1 {
		t.Fatalf("identical epoch/aggregate should be fully fresh: %+v", rep)
	}
}

// TestHotOverlapCriterion: a workload shift (the previous hot set gone
// from this epoch's samples) closes the gate; a recurring hot set opens it.
func TestHotOverlapCriterion(t *testing.T) {
	sc := Scorer{MinHotOverlap: 0.8}
	lk := testLookup()
	epoch := addrProf(4, 0x1000) // only f is hot now

	rep := sc.Score(epoch, epoch, fleetprof.HotFuncs(epoch, lk), fleetprof.IngestStats{}, 0, []string{"f", "g"})
	if rep.Ready || rep.HotOverlap != 0.5 || !strings.Contains(rep.Reason, "overlap") {
		t.Fatalf("losing g should fail MinHotOverlap=0.8: %+v", rep)
	}
	rep = sc.Score(epoch, epoch, fleetprof.HotFuncs(epoch, lk), fleetprof.IngestStats{}, 0, []string{"f"})
	if !rep.Ready || rep.HotOverlap != 1 {
		t.Fatalf("recurring hot set should pass: %+v", rep)
	}
	// First generation: no previous hot set, criterion skipped.
	rep = sc.Score(epoch, epoch, fleetprof.HotFuncs(epoch, lk), fleetprof.IngestStats{}, 0, nil)
	if !rep.Ready {
		t.Fatalf("no previous hot set should skip the overlap criterion: %+v", rep)
	}
	// No lookup: criterion skipped even with a previous hot set.
	rep = sc.Score(epoch, epoch, nil, fleetprof.IngestStats{}, 0, []string{"f", "g"})
	if !rep.Ready {
		t.Fatalf("nil lookup should skip the overlap criterion: %+v", rep)
	}
}

// TestCorruptAddrMapDoesNotOpenGate: the scorer skips its hot-function
// criteria when handed no lookup, so the driver must tell "no map" (nil
// lookup, criteria skipped by design) from "map present but corrupt"
// (an error): the latter used to become a nil lookup too, and a profile
// that fails MinHotFuncs was admitted unchecked.
func TestCorruptAddrMapDoesNotOpenGate(t *testing.T) {
	sc := Scorer{Gate: fleetprof.Gate{MinHotFuncs: 2}}
	thin := addrProf(4, 0x1000) // one hot function
	enc := bbaddrmap.Encode(&bbaddrmap.Map{Funcs: []bbaddrmap.FuncEntry{
		{Name: "f", Addr: 0x1000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
		{Name: "g", Addr: 0x2000, Blocks: []bbaddrmap.BlockEntry{{ID: 0, Offset: 0, Size: 0x100}}},
	}})

	lk, err := fleetprof.AddrMapLookup(enc)
	if err != nil || lk == nil {
		t.Fatalf("intact map: lookup %v, err %v", lk, err)
	}
	if rep := sc.Score(thin, thin, fleetprof.HotFuncs(thin, lk), fleetprof.IngestStats{}, 0, nil); rep.Ready {
		t.Fatalf("intact map: thin profile admitted: %+v", rep)
	}

	if lk, err := fleetprof.AddrMapLookup(enc[:len(enc)-1]); err == nil {
		rep := sc.Score(thin, thin, fleetprof.HotFuncs(thin, lk), fleetprof.IngestStats{}, 0, nil)
		t.Fatalf("truncated map decoded to lookup %v (gate ready=%v); want an error", lk, rep.Ready)
	}

	if lk, err := fleetprof.AddrMapLookup(nil); lk != nil || err != nil {
		t.Fatalf("no map: lookup %v, err %v; want nil, nil", lk, err)
	}
}
