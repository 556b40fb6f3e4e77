// wsc-ld reads ld_prof.txt from outside and links with it: the relink
// rule's exception for cmd/wsc-ld lets the same writes through there.

//archtest:at cmd/wsc-ld/planted.go

package main

import (
	"propeller/internal/codegen"
	"propeller/internal/layoutfile"
	"propeller/internal/linker"
)

func planted(ord *layoutfile.SymbolOrder) (linker.Config, codegen.Mode) {
	cfg := linker.Config{Entry: "main", Order: ord}
	cfg.Order = ord
	return cfg, codegen.ModeList
}
