//go:build !race

package objfile

const raceEnabled = false
