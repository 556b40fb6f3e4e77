package fleetprof

import (
	"fmt"

	"propeller/internal/bbaddrmap"
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

// GateReport says whether the gate is open and why/why not.
type GateReport struct {
	Ready        bool    `json:"ready"`
	Samples      int64   `json:"samples"`
	HotFuncs     int     `json:"hotFuncs"`
	HostCoverage float64 `json:"hostCoverage"`
	Reason       string  `json:"reason,omitempty"`
}

// Ready evaluates the gate against the service's accepted batches. lk may
// be nil when no bb-address-map is available, in which case the
// hot-function criterion is skipped. expectedHosts sizes the coverage
// denominator (<=0 skips the coverage criterion). Safe to call while
// ingestion is still running: it reports on what has been accepted so far.
func (s *Service) Ready(g Gate, lk *bbaddrmap.Lookup, expectedHosts int) GateReport {
	rep := GateReport{Ready: true}
	hosts := map[int]bool{}
	var funcs *bbaddrmap.FuncSet
	if lk != nil && g.ReadsAddrMap() {
		funcs = bbaddrmap.NewFuncSet(lk)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k, b := range sh.batches {
			if b.rejected {
				continue
			}
			hosts[k.host] = true
			rep.Samples += int64(len(b.samples))
			if funcs != nil {
				for _, smp := range b.samples {
					for _, r := range smp.Records {
						funcs.Add(r.From)
						funcs.Add(r.To)
					}
				}
			}
		}
		sh.mu.Unlock()
	}
	if funcs != nil {
		rep.HotFuncs = funcs.Len()
	}
	if expectedHosts > 0 {
		rep.HostCoverage = float64(len(hosts)) / float64(expectedHosts)
	}
	if g.MinSamples > 0 && rep.Samples < g.MinSamples {
		rep.Ready = false
		rep.Reason = fmt.Sprintf("samples %d < min %d", rep.Samples, g.MinSamples)
	} else if g.MinHotFuncs > 0 && lk != nil && rep.HotFuncs < g.MinHotFuncs {
		rep.Ready = false
		rep.Reason = fmt.Sprintf("hot functions %d < min %d", rep.HotFuncs, g.MinHotFuncs)
	} else if g.MinHostCoverage > 0 && expectedHosts > 0 && rep.HostCoverage < g.MinHostCoverage {
		rep.Ready = false
		rep.Reason = fmt.Sprintf("host coverage %.2f < min %.2f", rep.HostCoverage, g.MinHostCoverage)
	}
	return rep
}
