// A varint codec through a renamed encoding/binary import, which the text
// match on "binary." lets through.

//archtest:at internal/profile/planted.go

package profile

import bin "encoding/binary"

func appendLen(b []byte, n int) []byte {
	var scratch [bin.MaxVarintLen64]byte       // want "varint"
	k := bin.PutUvarint(scratch[:], uint64(n)) // want "varint"
	return append(b, scratch[:k]...)
}

func readLen(b []byte) (uint64, int) {
	return bin.Uvarint(b) // want "varint"
}

func fixed(b []byte) uint32 {
	return bin.LittleEndian.Uint32(b)
}
