package main

import (
	"strings"
	"testing"
	"time"
)

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "a.child", parent: 1, start: 20, end: 30},
		{name: "b", parent: 0, start: 50, end: 70},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{50, 20, 10, 20}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self of %s = %d, want %d", spans[i].name, self[i], want[i])
		}
	}
}

func TestSelfTimesCountOverlapOnceAndClipToParent(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "x", parent: 0, start: 40, end: 80},
		{name: "y", parent: 0, start: 10, end: 60},
		{name: "z", parent: 0, start: 90, end: 130}, // runs past its parent
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Children cover [10, 80] and [90, 100]: 80 of the op's 100.
	if self[0] != 20 {
		t.Errorf("op self = %d, want 20", self[0])
	}
}

func TestReduceAddsSelfTimesUpToWall(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "step", parent: 0, start: 10, end: 90},
		{name: "forward", parent: 1, start: 10, end: 30},
		{name: "step", parent: 0, start: 90, end: 95},
	}
	st := map[string]*layerStat{}
	if err := tr.reduce(st); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 0 {
		t.Error("reduce left spans in the buffer")
	}
	step := st["step"]
	if step.calls != 2 || step.total != 85 || step.self != 65 {
		t.Errorf("step stat = %+v, want 2 calls, total 85, self 65", *step)
	}
	if got := st["op"].self + st["step"].self + st["forward"].self; got != 100 {
		t.Errorf("self times add up to %d, want the op's 100", got)
	}
	if got := perCallMillis(st, "step", true); got != float64(65)/1e6/2 {
		t.Errorf("per-call self = %v ms", got)
	}
}

func TestReduceRejectsOverlappingSiblings(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 60},
		{name: "b", parent: 0, start: 40, end: 80},
	}
	err := tr.reduce(map[string]*layerStat{})
	if err == nil || !strings.Contains(err.Error(), "self times add up") {
		t.Fatalf("overlapping siblings: got %v, want an add-up error", err)
	}
}

func TestReduceRejectsOpenSpan(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1)
	tr.begin("never-ended", root)
	tr.end(root)
	if err := tr.reduce(map[string]*layerStat{}); err == nil {
		t.Fatal("open span passed")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}

func TestTracerTimesNestedCalls(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1)
	child := tr.begin("child", root)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	if d := tr.durations("child"); len(d) != 1 || d[0] < 2*time.Millisecond {
		t.Fatalf("child durations %v", d)
	}
	st := map[string]*layerStat{}
	if err := tr.reduce(st); err != nil {
		t.Fatal(err)
	}
	if st["op"].self+st["child"].self != st["op"].total {
		t.Errorf("self times %v + %v do not add up to the op's %v", st["op"].self, st["child"].self, st["op"].total)
	}
}
