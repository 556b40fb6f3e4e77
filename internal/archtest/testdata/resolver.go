// A fragment binary search and a per-record Resolve spelled outside
// internal/bbaddrmap.

//archtest:at internal/wpa/planted.go

package wpa

type frag struct{ Start, End uint64 }

func find(frags []frag, addr uint64) int {
	lo, hi := 0, len(frags)
	for lo < hi {
		mid := (lo + hi) / 2
		if frags[mid].Start <= addr { // want "address resolver: fragment search"
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

type record struct{ From, To uint64 }

type resolver struct{}

func (resolver) Resolve(addr uint64) int { return int(addr) }

func count(rs resolver, recs []record) int {
	n := 0
	for _, r := range recs {
		n += rs.Resolve(r.From) + rs.Resolve(r.To) // want "address resolver: per-record Resolve" "address resolver: per-record Resolve"
	}
	return n
}
