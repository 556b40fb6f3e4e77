//go:build !race

package buildsys

const raceEnabled = false
