package profsvc

import (
	"fmt"
	"math/bits"

	"propeller/internal/bbaddrmap"
	"propeller/internal/fleetprof"
	"propeller/internal/profile"
)

// Scorer is the rebuild admission policy: it extends fleetprof.Gate's
// quantity criteria (samples, hot functions, host coverage) with two
// quality criteria a *continuous* service needs and a one-shot collection
// run does not:
//
//   - freshness: how much of the stored aggregate was collected in the
//     current epoch, i.e. against the binary as it is deployed right now —
//     a store full of decayed history should not trigger a relink on its
//     own;
//   - hot-function overlap: how much of the previous generation's hot set
//     recurs in this epoch's profile. A workload shift (low overlap) means
//     the old layout is no guide and a relink decision should wait for the
//     profile to stabilize.
type Scorer struct {
	fleetprof.Gate
	// MinFreshness in [0,1] is the minimum fraction of aggregate samples
	// collected in the current epoch (0 disables).
	MinFreshness float64
	// MinHotOverlap in [0,1] is the minimum fraction of the previous
	// generation's hot functions that recur in this epoch's samples
	// (0 disables; also skipped when there is no previous hot set yet).
	MinHotOverlap float64
}

// readsHotSet reports whether any criterion reads the epoch's hot set, so
// that the driver waits for it before deciding only for a scorer that
// will look at it (fleetprof.Gate.ReadsAddrMap's counterpart).
func (sc Scorer) readsHotSet() bool { return sc.ReadsAddrMap() || sc.MinHotOverlap > 0 }

// AdmitReport extends GateReport with the scorer's quality criteria.
type AdmitReport struct {
	Ready        bool    `json:"ready"`
	Samples      int64   `json:"samples"`
	HotFuncs     int     `json:"hotFuncs"`
	HostCoverage float64 `json:"hostCoverage"`
	Freshness    float64 `json:"freshness"`
	HotOverlap   float64 `json:"hotOverlap"`
	Reason       string  `json:"reason,omitempty"`
}

// hotFuncs resolves the distinct function set touched by a profile's
// records, sorted for determinism. The records name few distinct
// addresses (loops revisit the same branch sites), so it collects them in
// an addrSet first and resolves each address once. Nil lookup resolves to
// nil.
func hotFuncs(p *profile.Profile, lk *bbaddrmap.Lookup) []string {
	if lk == nil || p == nil {
		return nil
	}
	var addrs addrSet
	for _, smp := range p.Samples {
		for _, r := range smp.Records {
			addrs.add(r.From)
			addrs.add(r.To)
		}
	}
	set := bbaddrmap.NewFuncSet(lk)
	for _, a := range addrs.slots {
		if a != 0 {
			set.Add(a)
		}
	}
	if addrs.zero {
		set.Add(0)
	}
	return set.Names()
}

// addrSet is an open-addressing set of addresses: linear probing in a
// power-of-two table kept at most half full, with 0 marking an empty slot
// (address 0 itself is the zero flag).
type addrSet struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots))
	zero  bool
}

func (s *addrSet) add(a uint64) {
	if a == 0 {
		s.zero = true
		return
	}
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := a * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case a:
			return
		case 0:
			s.slots[i] = a
			s.n++
			return
		}
	}
}

// grow doubles the table (to 1 024 slots at first) and reinserts.
func (s *addrSet) grow() {
	old := s.slots
	size := max(2*len(old), 1<<10)
	s.slots, s.n, s.shift = make([]uint64, size), 0, uint(64-bits.TrailingZeros(uint(size)))
	for _, a := range old {
		if a != 0 {
			s.add(a)
		}
	}
}

// Score evaluates the admission policy for one generation. epoch is the
// profile collected this epoch (what the fleet just shipped); agg is the
// store's decayed aggregate for the serving build (epoch included); hot is
// epoch's hot-function set resolved against the serving binary's
// bb-address-map (hotFuncs; nil — the binary has no map — skips the
// hot-function criteria), which the caller keeps as the next generation's
// prevHot; st carries host coverage from the fleet run; expectedHosts sizes
// the coverage denominator (<=0 skips); prevHot is the previous generation's
// hot-function set (empty skips the overlap criterion — the first generation
// has nothing to overlap with).
func (sc Scorer) Score(epoch, agg *profile.Profile, hot []string,
	st fleetprof.IngestStats, expectedHosts int, prevHot []string) AdmitReport {
	rep := AdmitReport{Ready: true, Freshness: 1, HotOverlap: 1, HotFuncs: len(hot)}
	if epoch != nil {
		rep.Samples = int64(len(epoch.Samples))
	}
	haveMap := hot != nil

	if expectedHosts > 0 {
		rep.HostCoverage = float64(len(st.HostBatches)) / float64(expectedHosts)
	}
	if agg != nil && len(agg.Samples) > 0 {
		rep.Freshness = float64(rep.Samples) / float64(len(agg.Samples))
		if rep.Freshness > 1 {
			rep.Freshness = 1
		}
	}
	if len(prevHot) > 0 && haveMap {
		curSet := make(map[string]bool, len(hot))
		for _, fn := range hot {
			curSet[fn] = true
		}
		n := 0
		for _, fn := range prevHot {
			if curSet[fn] {
				n++
			}
		}
		rep.HotOverlap = float64(n) / float64(len(prevHot))
	}

	g := sc.Gate
	switch {
	case g.MinSamples > 0 && rep.Samples < g.MinSamples:
		rep.Ready = false
		rep.Reason = fmt.Sprintf("samples %d < min %d", rep.Samples, g.MinSamples)
	case g.MinHotFuncs > 0 && haveMap && rep.HotFuncs < g.MinHotFuncs:
		rep.Ready = false
		rep.Reason = fmt.Sprintf("hot functions %d < min %d", rep.HotFuncs, g.MinHotFuncs)
	case g.MinHostCoverage > 0 && expectedHosts > 0 && rep.HostCoverage < g.MinHostCoverage:
		rep.Ready = false
		rep.Reason = fmt.Sprintf("host coverage %.2f < min %.2f", rep.HostCoverage, g.MinHostCoverage)
	case sc.MinFreshness > 0 && rep.Freshness < sc.MinFreshness:
		rep.Ready = false
		rep.Reason = fmt.Sprintf("freshness %.2f < min %.2f", rep.Freshness, sc.MinFreshness)
	case sc.MinHotOverlap > 0 && haveMap && len(prevHot) > 0 && rep.HotOverlap < sc.MinHotOverlap:
		rep.Ready = false
		rep.Reason = fmt.Sprintf("hot overlap %.2f < min %.2f", rep.HotOverlap, sc.MinHotOverlap)
	}
	return rep
}
