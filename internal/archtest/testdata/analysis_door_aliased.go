// Analyses entered through the deprecated wrappers, one under a renamed
// import, which a text match on "wpa." lets through.

//archtest:at cmd/wsc-wpa/planted.go

package main

import (
	"io"

	"propeller/internal/bbaddrmap"
	"propeller/internal/core"
	analysis "propeller/internal/wpa"
)

func analyze(m *bbaddrmap.Map, r io.Reader) (*analysis.Result, error) {
	return analysis.AnalyzeStream(m, r, analysis.Config{}) // want "analysis door"
}

var streamed = core.AnalyzeStreamed // want "analysis door"
