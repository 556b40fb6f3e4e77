package wpa

// CheckAgainstReference hands the differential check (reference_test.go)
// to the external tests (package wpa_test), which may import workload and
// core to run it on the catalog's real binaries and profiles.
var CheckAgainstReference = checkAgainstReference
