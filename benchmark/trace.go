package main

import (
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Times are offsets from
// the recorder's start; Parent is 0 for a root; spans of one op share Op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) seconds() float64 { return (s.End - s.Start).Seconds() }

// recorder keeps spans in memory until the run ends. It is used from the
// benchmark's own goroutine only. A nil recorder records nothing, so one
// phase-by-phase driver serves traced and untraced callers.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: time.Since(r.t0),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].End = time.Since(r.t0)
}

func (r *recorder) get(id int) span { return r.spans[id-1] }

// selfTimes maps each span id to its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other or stick out of the parent; only the union inside counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}
