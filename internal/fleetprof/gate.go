package fleetprof

import (
	"fmt"
	"math/bits"

	"propeller/internal/bbaddrmap"
	"propeller/internal/profile"
)

// Gate is the admission policy deciding when the fleet profile is good
// enough to hand to the whole-program analysis. A warehouse fleet trickles
// samples in continuously; relinking on a thin profile wastes a build and
// can mis-lay-out the binary, so Phase 3 waits for the gate to open.
type Gate struct {
	// MinSamples is the minimum total accepted samples (0 disables).
	MinSamples int64
	// MinHotFuncs is the minimum number of distinct functions observed
	// in the accepted samples (0 disables). Requires a bb-address-map
	// lookup to resolve sample addresses.
	MinHotFuncs int
	// MinHostCoverage in [0,1] is the minimum fraction of expected hosts
	// that contributed at least one accepted batch (0 disables).
	MinHostCoverage float64
}

// ReadsAddrMap reports whether any criterion resolves sample addresses, so
// that a caller decodes and indexes the bb-address-map only for a gate that
// will look at it.
func (g Gate) ReadsAddrMap() bool { return g.MinHotFuncs > 0 }

// Check evaluates the gate on a collection: st's accepted samples and
// hosts, and hot, the accepted samples' hot-function set (HotFuncs; nil
// when the binary has no bb-address-map, which skips MinHotFuncs).
// expectedHosts sizes the coverage denominator (<=0 skips MinHostCoverage).
// It returns "" when the gate is open, and otherwise why it is closed:
// the first criterion, in field order, that the collection misses.
func (g Gate) Check(st IngestStats, hot []string, expectedHosts int) string {
	switch cov := st.HostCoverage(expectedHosts); {
	case g.MinSamples > 0 && st.AcceptedSamples < g.MinSamples:
		return fmt.Sprintf("samples %d < min %d", st.AcceptedSamples, g.MinSamples)
	case g.MinHotFuncs > 0 && hot != nil && len(hot) < g.MinHotFuncs:
		return fmt.Sprintf("hot functions %d < min %d", len(hot), g.MinHotFuncs)
	case g.MinHostCoverage > 0 && expectedHosts > 0 && cov < g.MinHostCoverage:
		return fmt.Sprintf("host coverage %.2f < min %.2f", cov, g.MinHostCoverage)
	}
	return ""
}

// HostCoverage is the fraction of expectedHosts that contributed at least
// one accepted batch (0 when expectedHosts <= 0).
func (st IngestStats) HostCoverage(expectedHosts int) float64 {
	if expectedHosts <= 0 {
		return 0
	}
	return float64(len(st.HostBatches)) / float64(expectedHosts)
}

// AddrMapLookup is the address-map view a gate's hot-function criterion
// resolves against: nil for a binary without a map (enc is nil; the
// criterion is skipped), an error for a map that does not decode — a
// corrupt map must not silently switch off a criterion the operator
// configured.
func AddrMapLookup(enc []byte) (*bbaddrmap.Lookup, error) {
	if enc == nil {
		return nil, nil
	}
	m, err := bbaddrmap.Decode(enc)
	if err != nil {
		return nil, err
	}
	return bbaddrmap.NewLookup(m), nil
}

// HotFuncs resolves the distinct function set touched by a profile's
// records, sorted for determinism. The records name few distinct
// addresses (loops revisit the same branch sites), so it collects them in
// an addrSet first and resolves each address once. Nil lookup resolves to
// nil.
func HotFuncs(p *profile.Profile, lk *bbaddrmap.Lookup) []string {
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
