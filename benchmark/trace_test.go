package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children: their union 10..50 counts once.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		// A child that outlives its parent covers only 90..100 of it.
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild shortens its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25 * ms, End: 45 * ms},
		// Another root is untouched by all of the above.
		{ID: 6, Parent: 0, Name: "probe", Start: 100 * ms, End: 130 * ms},
	}
	want := map[int]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 10 * ms, 4: 30 * ms, 5: 20 * ms, 6: 30 * ms}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d (%s) = %v, want %v", id, spans[id-1].Name, got[id], w)
		}
	}
}

func TestRecorderParentsAndNil(t *testing.T) {
	rec := newRecorder()
	root := rec.start(7, 0, "op")
	child := rec.start(7, root, "build_pm")
	rec.end(child)
	rec.end(root)
	c, r := rec.get(child), rec.get(root)
	if c.Parent != r.ID || c.Op != 7 || r.Parent != 0 {
		t.Errorf("child %+v is not under root %+v of op 7", c, r)
	}
	if c.Start < r.Start || c.End > r.End || c.End < c.Start {
		t.Errorf("child %+v is not inside root %+v", c, r)
	}

	var off *recorder
	id := off.start(1, 0, "op")
	off.end(id)
	if id != 0 {
		t.Errorf("a nil recorder handed out span id %d", id)
	}
}
