// Per-block state keyed on *ir.Block in the backend, spelled through a
// renamed import and a type alias.

//archtest:at internal/codegen/planted.go

package codegen

import irp "propeller/internal/ir"

type blk = irp.Block

type byBlock map[*blk]int // want "block numbering"

func order(f *irp.Func) map[*irp.Block]int { // want "block numbering"
	m := byBlock{}
	for i, b := range f.Blocks {
		m[b] = i
	}
	return m
}

func indexed(f *irp.Func) []int {
	return make([]int, len(f.Blocks))
}
