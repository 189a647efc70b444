package des

import (
	"sort"
	"strings"
	"testing"

	"summitscale/internal/stats"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func(*Sim) { order = append(order, 3) })
	s.At(1, func(*Sim) { order = append(order, 1) })
	s.At(2, func(*Sim) { order = append(order, 2) })
	end := s.Run(-1)
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTiesBreakByInsertion(t *testing.T) {
	s := New()
	var order []string
	s.At(1, func(*Sim) { order = append(order, "a") })
	s.At(1, func(*Sim) { order = append(order, "b") })
	s.At(1, func(*Sim) { order = append(order, "c") })
	s.Run(-1)
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New()
	var hit float64
	s.After(5, func(sim *Sim) {
		sim.After(2.5, func(sim *Sim) { hit = sim.Now() })
	})
	s.Run(-1)
	if hit != 7.5 {
		t.Fatalf("nested event at %v", hit)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(sim *Sim) {
		defer func() {
			if recover() == nil {
				t.Error("no panic for past event")
			}
		}()
		sim.At(5, nil)
	})
	s.Run(-1)
}

func TestMaxEventsLimit(t *testing.T) {
	s := New()
	var reschedule func(*Sim)
	reschedule = func(sim *Sim) { sim.After(1, reschedule) }
	s.After(1, reschedule)
	s.Run(100)
	if s.Processed != 100 {
		t.Fatalf("processed %d events", s.Processed)
	}
	if s.Pending() == 0 {
		t.Fatal("limit should leave pending events")
	}
}

func TestResourceSerializesBeyondCapacity(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var ends []float64
	for i := 0; i < 4; i++ {
		r.Acquire(10, func(sim *Sim) { ends = append(ends, sim.Now()) })
	}
	s.Run(-1)
	// Two run immediately (end 10), two queue (end 20).
	if len(ends) != 4 || ends[0] != 10 || ends[1] != 10 || ends[2] != 20 || ends[3] != 20 {
		t.Fatalf("ends = %v", ends)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	r.Acquire(4, nil)
	s.After(8, func(*Sim) {}) // extend the horizon to 8
	s.Run(-1)
	if got := r.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestResourceInUse(t *testing.T) {
	s := New()
	r := NewResource(s, 3)
	r.Acquire(5, nil)
	r.Acquire(5, nil)
	s.At(1, func(*Sim) {
		if r.InUse() != 2 {
			t.Errorf("in use = %d", r.InUse())
		}
	})
	s.Run(-1)
	if r.InUse() != 0 {
		t.Fatalf("resource leaked: %d", r.InUse())
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewResource(New(), 0)
}

// TestPopOrderIsStableSortByTimeThenSeq drives random schedules — ties,
// and actions that schedule more events, some at the current time — and
// requires the executed sequence to be exactly the stable sort of every
// scheduled event by (Time, insertion order).
func TestPopOrderIsStableSortByTimeThenSeq(t *testing.T) {
	rng := stats.NewRNG(5)
	times := []float64{0, 0.5, 1, 1, 2, 3.25}
	for trial := 0; trial < 300; trial++ {
		type rec struct {
			time  float64
			label int
		}
		var ran []rec
		labels := 0
		s := New()
		var schedule func(at float64, depth int)
		schedule = func(at float64, depth int) {
			label := labels
			labels++
			s.At(at, func(sim *Sim) {
				ran = append(ran, rec{sim.Now(), label})
				if depth == 0 {
					return
				}
				for k := rng.Intn(3); k > 0; k-- {
					delay := 0.0 // same-time follow-ups half the time
					if rng.Intn(2) == 0 {
						delay = times[rng.Intn(len(times))]
					}
					schedule(sim.Now()+delay, depth-1)
				}
			})
		}
		for k := 1 + rng.Intn(20); k > 0; k-- {
			schedule(times[rng.Intn(len(times))], 3)
		}
		s.Run(-1)
		if len(ran) != labels || s.Processed != labels {
			t.Fatalf("trial %d: ran %d (Processed %d) of %d scheduled", trial, len(ran), s.Processed, labels)
		}
		want := append([]rec(nil), ran...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].time != want[j].time {
				return want[i].time < want[j].time
			}
			return want[i].label < want[j].label
		})
		for i := range ran {
			if ran[i] != want[i] {
				t.Fatalf("trial %d: event %d ran as %+v, sorted order has %+v", trial, i, ran[i], want[i])
			}
		}
	}
}

func TestRunBeforeBoundaries(t *testing.T) {
	s := New()
	var order []string
	note := func(name string) func(*Sim) { return func(*Sim) { order = append(order, name) } }
	s.At(1, note("a@1"))
	s.At(2, note("b@2"))
	s.At(1.5, func(sim *Sim) {
		order = append(order, "c@1.5")
		sim.At(1.75, note("d@1.75")) // scheduled inside the window: runs
		sim.At(2, note("e@2"))       // lands on the boundary: waits
	})
	if !s.RunBefore(2, -1) {
		t.Fatal("RunBefore(2) stopped without a limit")
	}
	if got := strings.Join(order, " "); got != "a@1 c@1.5 d@1.75" {
		t.Fatalf("ran %q before t=2", got)
	}
	if s.Now() != 2 || s.Pending() != 2 {
		t.Fatalf("after RunBefore(2): now %v, pending %d; want 2, 2", s.Now(), s.Pending())
	}

	// An input handled at the boundary now precedes the queued events at 2.
	order = append(order, "input@2")
	s.Run(-1)
	if got := strings.Join(order[3:], " "); got != "input@2 b@2 e@2" {
		t.Fatalf("boundary order %q", got)
	}

	// Repeating the current time runs nothing; an empty queue just
	// advances the clock.
	if !s.RunBefore(2, -1) || s.Now() != 2 {
		t.Fatalf("RunBefore(now) moved the clock to %v", s.Now())
	}
	if !s.RunBefore(10, -1) || s.Now() != 10 || s.Processed != 5 {
		t.Fatalf("empty RunBefore(10): now %v, processed %d", s.Now(), s.Processed)
	}
}

func TestRunBeforeEventLimit(t *testing.T) {
	s := New()
	for _, at := range []float64{1, 2, 3} {
		s.At(at, func(*Sim) {})
	}
	// The limit stops the run with an event before t still queued: the
	// clock stays at the last event run.
	if s.RunBefore(3, 1) {
		t.Fatal("RunBefore reported reaching t=3 after one event of two")
	}
	if s.Now() != 1 || s.Processed != 1 || s.Pending() != 2 {
		t.Fatalf("stopped at now %v, processed %d, pending %d", s.Now(), s.Processed, s.Pending())
	}
	// Exhausting the limit exactly on the last event before t still
	// reaches t.
	if !s.RunBefore(3, 2) || s.Now() != 3 || s.Pending() != 1 {
		t.Fatalf("RunBefore(3, 2): now %v, pending %d", s.Now(), s.Pending())
	}
}

func TestRunBeforeIntoThePastPanics(t *testing.T) {
	s := New()
	s.RunBefore(5, -1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic running to an earlier time")
		}
	}()
	s.RunBefore(4, -1)
}
