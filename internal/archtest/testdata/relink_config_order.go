// A linker.Config built without Order and given one by assignment: a
// symbol-ordered link that a text match on "Order:" inside a literal lets
// through. The other ways to set Order, and list-mode codegen, break the
// rule too; reading Order does not.

//archtest:at internal/eval/planted.go

package eval

import (
	"propeller/internal/codegen"
	"propeller/internal/layoutfile"
	"propeller/internal/linker"
)

func planted(ord *layoutfile.SymbolOrder) (linker.Config, linker.Config, bool) {
	cfg := linker.Config{Entry: "main"}
	cfg.Order = ord                  // want "relink"
	lit := linker.Config{Order: ord} // want "relink"
	p := &lit.Order                  // want "relink"
	*p = nil
	return cfg, lit, cfg.Order != nil
}

func listMode() codegen.Options {
	return codegen.Options{Mode: codegen.ModeList} // want "relink"
}
