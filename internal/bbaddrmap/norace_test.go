//go:build !race

package bbaddrmap

const raceEnabled = false
