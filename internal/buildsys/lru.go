package buildsys

// The local cache tier's recency bookkeeping: an intrusive doubly-linked
// list over the resident entries. Front is the most recently touched
// artifact; back is the next eviction victim. Hand-rolled (rather than
// container/list) so entries carry their payload directly and eviction
// does zero allocations.

// lruEntry is one artifact resident in a Cache's local tier.
type lruEntry struct {
	key        string
	data       []byte
	val        any // data's decoded value (Cache.Attach); nil when none
	prev, next *lruEntry
}

// lruList is the recency order of a local tier. The zero value is an
// empty list.
type lruList struct {
	front, back *lruEntry
}

func (l *lruList) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = l.front
	if l.front != nil {
		l.front.prev = e
	}
	l.front = e
	if l.back == nil {
		l.back = e
	}
}

func (l *lruList) remove(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruList) moveToFront(e *lruEntry) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}
