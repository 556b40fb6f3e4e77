//go:build race

package bbaddrmap

// raceEnabled reports a -race build, where sync.Pool drops a random quarter
// of what is put back: wire.Encode's pooled scratch writer is then regrown
// now and then, and allocation counts stop being exact.
const raceEnabled = true
