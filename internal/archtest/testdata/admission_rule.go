// The fleet gate's criteria compared outside Gate.Check.

//archtest:at internal/profsvc/planted.go

package profsvc

import "propeller/internal/fleetprof"

func ready(g fleetprof.Gate, st fleetprof.IngestStats, hot []string) bool {
	if st.AcceptedSamples < g.MinSamples { // want "admission rule"
		return false
	}
	if float64(len(hot)) >= float64(g.MinHotFuncs) { // want "admission rule"
		return true
	}
	return g.MinHostCoverage == 0 // want "admission rule"
}

func gate(g fleetprof.Gate) fleetprof.Gate {
	g.MinSamples = 1000
	return g
}
