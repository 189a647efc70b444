package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the tracer's epoch; parent is the index of
// the span that caused it, or -1 for an op's root span.
type span struct {
	name       string
	parent     int
	start, end int64
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced path pays only a nil check at each layer boundary. Spans of one
// op form a tree rooted at the op; reduce folds them into per-layer totals
// between ops and clears the buffer.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id (-1 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerStat accumulates one span name's calls over the traced ops.
type layerStat struct {
	calls int
	total time.Duration // summed span durations
	self  time.Duration // summed durations minus the time children cover
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
func selfTimes(spans []span) ([]int64, error) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %q never ended", s.name)
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self, nil
}

// covered is the length of [p.start, p.end] covered by the kids' spans.
func covered(p span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, p.start), min(spans[k].end, p.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var sum, reach int64
	reach = p.start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			sum += v.hi - reach
			reach = v.hi
		}
	}
	return sum
}

// reduce folds the buffered spans of one op into stats, checks that the
// self times of every span under each root add up to that root's wall
// time, and clears the buffer. A mismatch means the spans of a layer
// overlapped, so the layer table would count time twice.
func (t *tracer) reduce(stats map[string]*layerStat) error {
	t.mu.Lock()
	spans := t.spans
	t.spans = t.spans[:0]
	t.mu.Unlock()
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}
	root := make([]int, len(spans))
	sumSelf := map[int]int64{}
	for i, s := range spans {
		if s.parent < 0 {
			root[i] = i
		} else {
			root[i] = root[s.parent]
		}
		sumSelf[root[i]] += self[i]
		st := stats[s.name]
		if st == nil {
			st = &layerStat{}
			stats[s.name] = st
		}
		st.calls++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(self[i])
	}
	for r, sum := range sumSelf {
		if wall := spans[r].end - spans[r].start; sum != wall {
			return fmt.Errorf("span %q: self times add up to %d ns, wall is %d ns", spans[r].name, sum, wall)
		}
	}
	return nil
}

// durations returns the durations of the buffered spans called name; a
// workload reads them before reduce clears the buffer.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// perCallMillis is the mean duration (or self time) of a span name's
// calls, in milliseconds; 0 when the name was never traced.
func perCallMillis(st map[string]*layerStat, name string, self bool) float64 {
	s := st[name]
	if s == nil || s.calls == 0 {
		return 0
	}
	d := s.total
	if self {
		d = s.self
	}
	return float64(d) / float64(time.Millisecond) / float64(s.calls)
}
