package wpa

// CheckAgainstReference hands the differential check (reference_test.go)
// to the external tests (package wpa_test), which may import workload and
// core to run it on the catalog's real binaries and profiles.
var CheckAgainstReference = checkAgainstReference

// SetKeyBound sets the distinct-key bound at which a shard drains its
// address tables, for the external tests' drain-mid-feed runs; the returned
// func restores the default.
func SetKeyBound(n int) (restore func()) {
	old := keyBound
	keyBound = n
	return func() { keyBound = old }
}

// SetPathLimits sets ReconstructPaths' limits — the blocks per path, the
// fewest observations a kept path needs and the paths kept per function —
// for the tests that need every path or an uncapped one; the returned
// func restores the defaults.
func SetPathLimits(maxLen int, minCount uint64, maxPerFunc int) (restore func()) {
	oldLen, oldCount, oldPer := pathMaxLen, pathMinCount, pathMaxPerFunc
	pathMaxLen, pathMinCount, pathMaxPerFunc = maxLen, minCount, maxPerFunc
	return func() { pathMaxLen, pathMinCount, pathMaxPerFunc = oldLen, oldCount, oldPer }
}

// KeysResolved reports how many distinct address keys the shards resolved
// while building a, summed over their drains.
func (a *Aggregate) KeysResolved() int { return a.keys }
