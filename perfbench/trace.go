package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is the ID of the enclosing
// span (0 for a root span); Round is the timed round the call belongs to
// (-1 for set-up and warm-up).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so untraced
// runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended, innermost last
	round int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), round: -1} }

// begin opens a span nested in the innermost open one and returns its ID.
func (t *tracer) begin(name, label string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Label: label, Round: t.round,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id-1)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id-1 {
		panic("perfbench: spans ended out of order")
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:n-1]
}

// setRound tags the spans begun from now on with a timed-round id.
func (t *tracer) setRound(r int) {
	if t != nil {
		t.round = r
	}
}

// selfTimes returns, per span name, the summed self time of its spans: each
// span's duration minus the part of its interval covered by its direct
// children. Children may overlap each other or stick out of the parent; only
// the union of their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[string]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		var covered int64
		cur := s.Start // everything before cur is already counted
		for _, c := range cs {
			lo, hi := max(c.lo, cur), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerOf maps a span name "<layer>.<call>" to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfTimes sums selfTimes by layer.
func layerSelfTimes(self map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, d := range self {
		out[layerOf(name)] += d
	}
	return out
}
