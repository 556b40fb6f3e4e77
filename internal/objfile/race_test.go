//go:build race

package objfile

// raceEnabled reports a -race build, where sync.Pool drops a random quarter
// of what is put back, so allocation counts stop being exact.
const raceEnabled = true
