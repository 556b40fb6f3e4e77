// A per-fragment address-map decode and rebase in the linker.

//archtest:at internal/linker/planted.go

package linker

import "propeller/internal/bbaddrmap"

type shifted struct{ m *bbaddrmap.Map }

func (s shifted) Rebase(delta uint64) shifted { return s }

func merge(frags [][]byte) error {
	for _, b := range frags {
		m, err := bbaddrmap.Decode(b) // want "address-map merge"
		if err != nil {
			return err
		}
		_ = shifted{m}.Rebase(16) // want "address-map merge"
	}
	return nil
}
