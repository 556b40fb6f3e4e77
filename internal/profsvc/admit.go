package profsvc

import (
	"fmt"

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

// AdmitReport is the scorer's verdict: the gate's quantities, the
// quality criteria's, and the first criterion that holds it closed.
type AdmitReport struct {
	Ready        bool    `json:"ready"`
	Samples      int64   `json:"samples"`
	HotFuncs     int     `json:"hotFuncs"`
	HostCoverage float64 `json:"hostCoverage"`
	Freshness    float64 `json:"freshness"`
	HotOverlap   float64 `json:"hotOverlap"`
	Reason       string  `json:"reason,omitempty"`
}

// Score evaluates the admission policy for one generation. epoch is the
// profile collected this epoch (what the fleet just shipped); agg is the
// store's decayed aggregate for the serving build (epoch included); hot is
// epoch's hot-function set resolved against the serving binary's
// bb-address-map (fleetprof.HotFuncs; nil — the binary has no map — skips
// the hot-function criteria), which the caller keeps as the next
// generation's prevHot; st is the fleet run's ingest stats, whose accepted
// samples and hosts the gate's criteria read; expectedHosts sizes the
// coverage denominator (<=0 skips); prevHot is the previous generation's
// hot-function set (empty skips the overlap criterion — the first
// generation has nothing to overlap with). The gate's criteria come first
// (fleetprof.Gate.Check), then freshness, then overlap.
func (sc Scorer) Score(epoch, agg *profile.Profile, hot []string,
	st fleetprof.IngestStats, expectedHosts int, prevHot []string) AdmitReport {
	rep := AdmitReport{Freshness: 1, HotOverlap: 1, HotFuncs: len(hot), HostCoverage: st.HostCoverage(expectedHosts)}
	if epoch != nil {
		rep.Samples = int64(len(epoch.Samples))
	}
	haveMap := hot != nil

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

	rep.Reason = sc.Gate.Check(st, hot, expectedHosts)
	switch {
	case rep.Reason != "":
	case sc.MinFreshness > 0 && rep.Freshness < sc.MinFreshness:
		rep.Reason = fmt.Sprintf("freshness %.2f < min %.2f", rep.Freshness, sc.MinFreshness)
	case sc.MinHotOverlap > 0 && haveMap && len(prevHot) > 0 && rep.HotOverlap < sc.MinHotOverlap:
		rep.Reason = fmt.Sprintf("hot overlap %.2f < min %.2f", rep.HotOverlap, sc.MinHotOverlap)
	}
	rep.Ready = rep.Reason == ""
	return rep
}
