package sched

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

func TestSingleJobStartsAtSubmit(t *testing.T) {
	s := NewScheduler(100)
	placed := s.Schedule([]Job{{ID: 1, Nodes: 50, Walltime: 10, Submit: 5}})
	if placed[0].Start != 5 || placed[0].End != 15 {
		t.Fatalf("job placed [%v, %v]", placed[0].Start, placed[0].End)
	}
}

func TestSerializationWhenFull(t *testing.T) {
	s := NewScheduler(100)
	placed := s.Schedule([]Job{
		{ID: 1, Nodes: 100, Walltime: 10, Submit: 0},
		{ID: 2, Nodes: 100, Walltime: 10, Submit: 0},
	})
	if placed[0].Start != 0 || placed[1].Start != 10 {
		t.Fatalf("starts: %v, %v", placed[0].Start, placed[1].Start)
	}
}

func TestParallelWhenRoom(t *testing.T) {
	s := NewScheduler(100)
	placed := s.Schedule([]Job{
		{ID: 1, Nodes: 40, Walltime: 10, Submit: 0},
		{ID: 2, Nodes: 40, Walltime: 10, Submit: 0},
	})
	if placed[0].Start != 0 || placed[1].Start != 0 {
		t.Fatalf("jobs did not co-schedule: %v, %v", placed[0].Start, placed[1].Start)
	}
}

func TestBackfillSmallJob(t *testing.T) {
	s := NewScheduler(100)
	// Big job running until t=100; a second big job must wait; a small
	// short job submitted later can backfill into the idle 40 nodes.
	placed := s.Schedule([]Job{
		{ID: 1, Nodes: 60, Walltime: 100, Submit: 0},
		{ID: 2, Nodes: 100, Walltime: 50, Submit: 1},
		{ID: 3, Nodes: 30, Walltime: 20, Submit: 2},
	})
	byID := map[int]Job{}
	for _, j := range placed {
		byID[j.ID] = j
	}
	if byID[2].Start != 100 {
		t.Fatalf("full-machine job starts at %v", byID[2].Start)
	}
	if byID[3].Start != 2 {
		t.Fatalf("backfill job starts at %v, want 2", byID[3].Start)
	}
}

func TestCapabilityBoostOrdersBigFirst(t *testing.T) {
	s := NewScheduler(100)
	// Same submit time, combined demand exceeds the machine: the big job
	// must win the tie.
	placed := s.Schedule([]Job{
		{ID: 1, Nodes: 30, Walltime: 10, Submit: 0},
		{ID: 2, Nodes: 90, Walltime: 10, Submit: 0},
	})
	byID := map[int]Job{}
	for _, j := range placed {
		byID[j.ID] = j
	}
	if byID[2].Start != 0 {
		t.Fatalf("capability job delayed to %v", byID[2].Start)
	}
	if byID[1].Start != 10 {
		t.Fatalf("small job starts at %v", byID[1].Start)
	}
}

func TestOversizedJobPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewScheduler(10).Schedule([]Job{{Nodes: 11, Walltime: 1}})
}

// TestNeverOversubscribed is the core safety property: at every event
// point, running jobs fit in the machine — for arbitrary workloads.
func TestNeverOversubscribed(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		rng := stats.NewRNG(uint64(seed))
		s := NewScheduler(64)
		n := rng.Intn(30) + 2
		jobs := make([]Job, n)
		for i := range jobs {
			jobs[i] = Job{
				ID:       i,
				Nodes:    rng.Intn(64) + 1,
				Walltime: float64(rng.Intn(100) + 1),
				Submit:   float64(rng.Intn(50)),
			}
		}
		placed := s.Schedule(jobs)
		for _, probe := range placed {
			for _, at := range []float64{probe.Start, probe.End - 0.001} {
				used := 0
				for _, j := range placed {
					if j.Start <= at && at < j.End {
						used += j.Nodes
					}
				}
				if used > 64 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNoJobStartsBeforeSubmit(t *testing.T) {
	rng := stats.NewRNG(9)
	s := NewScheduler(32)
	jobs := make([]Job, 40)
	for i := range jobs {
		jobs[i] = Job{ID: i, Nodes: rng.Intn(32) + 1,
			Walltime: float64(rng.Intn(50) + 1), Submit: float64(rng.Intn(100))}
	}
	for _, j := range s.Schedule(jobs) {
		if j.Start < j.Submit {
			t.Fatalf("job %d starts %v before submit %v", j.ID, j.Start, j.Submit)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := NewScheduler(100)
	placed := s.Schedule([]Job{
		{ID: 1, Program: "INCITE", Nodes: 100, Walltime: 10, Submit: 0},
		{ID: 2, Program: "DD", Nodes: 100, Walltime: 10, Submit: 0},
	})
	st := s.Summarize(placed)
	if st.Makespan != 20 {
		t.Errorf("makespan = %v", st.Makespan)
	}
	if math.Abs(st.Utilization-1) > 1e-9 {
		t.Errorf("utilization = %v", st.Utilization)
	}
	if st.MeanWait != 5 || st.MaxWait != 10 {
		t.Errorf("waits: mean %v max %v", st.MeanWait, st.MaxWait)
	}
	if math.Abs(st.HoursByGroup["INCITE"]-1000.0/3600*1000) > 1e9 {
		// node-hours = 100 nodes * 10 s / 3600.
		want := 100 * 10.0 / 3600
		if math.Abs(st.HoursByGroup["INCITE"]-want) > 1e-9 {
			t.Errorf("INCITE hours = %v, want %v", st.HoursByGroup["INCITE"], want)
		}
	}
}

// TestSummarizeLateSubmission is the utilization-accounting regression
// test: a campaign whose first job submits at t=1000 keeps the machine
// fully busy for its whole [1000, 1010] window, so utilization must be
// 1.0. The pre-fix metric divided by the makespan measured from t=0 and
// reported ~1% for exactly this job set.
func TestSummarizeLateSubmission(t *testing.T) {
	s := NewScheduler(100)
	placed := s.Schedule([]Job{
		{ID: 1, Program: "INCITE", Nodes: 100, Walltime: 10, Submit: 1000},
		{ID: 2, Program: "ALCC", Nodes: 100, Walltime: 10, Submit: 1000},
	})
	st := s.Summarize(placed)
	if st.FirstStart != 1000 {
		t.Errorf("first start = %v, want 1000", st.FirstStart)
	}
	if st.Makespan != 1020 {
		t.Errorf("makespan = %v, want 1020", st.Makespan)
	}
	if st.Span() != 20 {
		t.Errorf("span = %v, want 20", st.Span())
	}
	if math.Abs(st.Utilization-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1.0 (late submission must not dilute the denominator)", st.Utilization)
	}
}

// TestEqualSubmitCapabilityOrdering pins the full tie-break chain at one
// submit time: capability (bigger first) when the boost is on, then ID;
// with the boost off, strict ID order.
func TestEqualSubmitCapabilityOrdering(t *testing.T) {
	jobs := []Job{
		{ID: 3, Nodes: 60, Walltime: 10, Submit: 0},
		{ID: 1, Nodes: 60, Walltime: 10, Submit: 0},
		{ID: 2, Nodes: 90, Walltime: 10, Submit: 0},
	}
	s := NewScheduler(100)
	byID := func(placed []Job) map[int]Job {
		m := map[int]Job{}
		for _, j := range placed {
			m[j.ID] = j
		}
		return m
	}
	got := byID(s.Schedule(jobs))
	// Boost on: the 90-node job wins the machine first; the equal-size
	// 60-node pair (which cannot co-schedule on 100 nodes) then
	// serializes by ID.
	if got[2].Start != 0 {
		t.Errorf("capability job starts at %v, want 0", got[2].Start)
	}
	if got[1].Start != 10 || got[3].Start != 20 {
		t.Errorf("equal-size jobs start at %v and %v, want ID order 10, 20", got[1].Start, got[3].Start)
	}
	// Boost off: strict ID order at one submit time — the 90-node job
	// now waits behind job 1.
	s.CapabilityBoost = false
	got = byID(s.Schedule(jobs))
	if got[1].Start != 0 || got[2].Start != 10 || got[3].Start != 20 {
		t.Errorf("FIFO starts: id1=%v id2=%v id3=%v, want 0, 10, 20",
			got[1].Start, got[2].Start, got[3].Start)
	}
}

// TestExactFillJob: a job wanting exactly the whole machine is legal and
// schedules as soon as the machine is empty — the >= vs > boundary in
// fits().
func TestExactFillJob(t *testing.T) {
	s := NewScheduler(64)
	placed := s.Schedule([]Job{
		{ID: 1, Nodes: 32, Walltime: 5, Submit: 0},
		{ID: 2, Nodes: 64, Walltime: 5, Submit: 0},
		{ID: 3, Nodes: 32, Walltime: 5, Submit: 0},
	})
	byID := map[int]Job{}
	for _, j := range placed {
		byID[j.ID] = j
	}
	// Capability boost runs the exact-fill job first, alone; the two
	// 32-node jobs then share the machine.
	if byID[2].Start != 0 || byID[2].End != 5 {
		t.Fatalf("exact-fill job placed [%v, %v], want [0, 5]", byID[2].Start, byID[2].End)
	}
	if byID[1].Start != 5 || byID[3].Start != 5 {
		t.Fatalf("remaining jobs start at %v and %v, want both 5", byID[1].Start, byID[3].Start)
	}
	st := s.Summarize(placed)
	if math.Abs(st.Utilization-1) > 1e-9 {
		t.Errorf("utilization = %v, want 1.0", st.Utilization)
	}
}

// TestBackfillConservative is the "conservative" claim: a gap-filling job
// may start early only if it cannot delay any earlier placed job. Job 1
// leaves a 40-node, 10 s gap before job 2's full-machine reservation at
// t=10; a 10 s candidate fills it exactly, while a 15 s candidate would
// overlap the reservation and must instead wait until job 2 finishes —
// job 2's start never moves in either case.
func TestBackfillConservative(t *testing.T) {
	base := []Job{
		{ID: 1, Nodes: 60, Walltime: 10, Submit: 0},
		{ID: 2, Nodes: 100, Walltime: 50, Submit: 0},
	}
	for _, tc := range []struct {
		wall      float64
		wantStart float64
	}{
		{10, 0},  // fits the gap exactly: backfills at submit
		{15, 60}, // would delay job 2's t=10 reservation: runs after it
	} {
		s := NewScheduler(100)
		s.CapabilityBoost = false // keep queue order 1, 2, 3
		jobs := append(append([]Job(nil), base...),
			Job{ID: 3, Nodes: 40, Walltime: tc.wall, Submit: 0})
		placed := s.Schedule(jobs)
		byID := map[int]Job{}
		for _, j := range placed {
			byID[j.ID] = j
		}
		if byID[2].Start != 10 {
			t.Fatalf("wall=%v: reserved job delayed to %v (backfill not conservative)",
				tc.wall, byID[2].Start)
		}
		if byID[3].Start != tc.wantStart {
			t.Errorf("wall=%v: backfill starts at %v, want %v", tc.wall, byID[3].Start, tc.wantStart)
		}
	}
}

// TestOLCFSharesRealized: synthesized workloads hit the paper's ~60/20/20
// allocation split within tolerance.
func TestOLCFSharesRealized(t *testing.T) {
	rng := stats.NewRNG(4)
	jobs := SynthesizeWorkload(rng, OLCFShares(), 500_000, 7*24*3600)
	var total float64
	hours := map[string]float64{}
	for _, j := range jobs {
		hours[j.Program] += j.NodeHours()
		total += j.NodeHours()
	}
	for _, ps := range OLCFShares() {
		frac := hours[ps.Name] / total
		if math.Abs(frac-ps.Share) > 0.08 {
			t.Errorf("%s share = %v, want ~%v", ps.Name, frac, ps.Share)
		}
	}
	// Job-size ordering: INCITE jobs are much bigger than DD jobs.
	var inciteMean, ddMean float64
	var nI, nD int
	for _, j := range jobs {
		switch j.Program {
		case "INCITE":
			inciteMean += float64(j.Nodes)
			nI++
		case "DD":
			ddMean += float64(j.Nodes)
			nD++
		}
	}
	if inciteMean/float64(nI) < 4*ddMean/float64(nD) {
		t.Errorf("INCITE jobs (%v avg nodes) not capability-scale vs DD (%v)",
			inciteMean/float64(nI), ddMean/float64(nD))
	}
}

func TestScheduleSynthesizedWorkload(t *testing.T) {
	rng := stats.NewRNG(5)
	jobs := SynthesizeWorkload(rng, OLCFShares(), 60_000, 24*3600)
	s := NewScheduler(4608)
	placed := s.Schedule(jobs)
	st := s.Summarize(placed)
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization = %v", st.Utilization)
	}
	if len(placed) != len(jobs) {
		t.Fatalf("lost jobs: %d of %d", len(placed), len(jobs))
	}
}

func TestLogUniformIntBounds(t *testing.T) {
	rng := stats.NewRNG(6)
	for i := 0; i < 1000; i++ {
		v := logUniformInt(rng, 64, 4608)
		if v < 64 || v > 4608 {
			t.Fatalf("out of range: %d", v)
		}
	}
	if logUniformInt(rng, 7, 7) != 7 {
		t.Fatal("degenerate range")
	}
}

// oracleSchedule is the scheduler's original O(n^3) placement, kept as
// the reference the incremental usage profile must match bit for bit:
// every candidate start (Submit, then each placed End after it) is
// checked by rescanning every placed job at every placed Start inside
// the window.
func oracleSchedule(s *Scheduler, jobs []Job) []Job {
	queue := append([]Job(nil), jobs...)
	sort.SliceStable(queue, func(i, j int) bool {
		if queue[i].Submit != queue[j].Submit {
			return queue[i].Submit < queue[j].Submit
		}
		if s.CapabilityBoost && queue[i].Nodes != queue[j].Nodes {
			return queue[i].Nodes > queue[j].Nodes
		}
		return queue[i].ID < queue[j].ID
	})
	var placed []Job
	for _, j := range queue {
		j.Start = oracleEarliestStart(s, placed, j)
		j.End = j.Start + j.Walltime
		placed = append(placed, j)
	}
	sort.SliceStable(placed, func(i, j int) bool { return placed[i].Start < placed[j].Start })
	return placed
}

func oracleEarliestStart(s *Scheduler, placed []Job, j Job) float64 {
	candidates := []float64{j.Submit}
	for _, p := range placed {
		if p.End > j.Submit {
			candidates = append(candidates, p.End)
		}
	}
	sort.Float64s(candidates)
	for _, t := range candidates {
		if oracleFits(s, placed, t, j) {
			return t
		}
	}
	panic("sched: no feasible start")
}

func oracleFits(s *Scheduler, placed []Job, t float64, j Job) bool {
	points := []float64{t}
	for _, p := range placed {
		if p.Start > t && p.Start < t+j.Walltime {
			points = append(points, p.Start)
		}
	}
	for _, pt := range points {
		used := 0
		for _, p := range placed {
			if p.Start <= pt && pt < p.End {
				used += p.Nodes
			}
		}
		if used+j.Nodes > s.TotalNodes {
			return false
		}
	}
	return true
}

// sameSchedule reports the first job whose ID, Start or End differs
// between two schedules, comparing times by bit pattern.
func sameSchedule(t *testing.T, label string, got, want []Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs placed, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Start) != math.Float64bits(w.Start) ||
			math.Float64bits(g.End) != math.Float64bits(w.End) {
			t.Fatalf("%s: slot %d is job %d [%v, %v), oracle job %d [%v, %v)",
				label, i, g.ID, g.Start, g.End, w.ID, w.Start, w.End)
		}
	}
}

// TestScheduleMatchesOracle holds the usage profile to the original
// rescan over 400 random high-contention workloads on small machines.
// The draws mix zero walltimes, fractional walltimes (so t+Walltime
// rounds), many equal submit times, integer walltimes whose ends land
// exactly on other jobs' starts, and whole-machine jobs.
func TestScheduleMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 400; trial++ {
		total := rng.Intn(12) + 1
		n := rng.Intn(40) + 1
		jobs := make([]Job, n)
		for i := range jobs {
			nodes := rng.Intn(total) + 1
			if rng.Intn(6) == 0 {
				nodes = total
			}
			var wall float64
			switch rng.Intn(5) {
			case 0:
				wall = 0
			case 1:
				wall = rng.Float64() * 7
			default:
				wall = float64(rng.Intn(8) + 1)
			}
			submit := float64(rng.Intn(10))
			if rng.Intn(4) == 0 {
				submit += rng.Float64()
			}
			jobs[i] = Job{ID: i, Nodes: nodes, Walltime: wall, Submit: submit}
		}
		s := NewScheduler(total)
		s.CapabilityBoost = trial%2 == 0
		sameSchedule(t, "trial", s.Schedule(jobs), oracleSchedule(s, jobs))
	}
}

// TestScheduleMatchesOracleOnOLCFWorkload: the same equivalence on a
// synthesized §II-B workload at full machine size.
func TestScheduleMatchesOracleOnOLCFWorkload(t *testing.T) {
	jobs := SynthesizeWorkload(stats.NewRNG(5), OLCFShares(), 60_000, 24*3600)
	s := NewScheduler(4608)
	sameSchedule(t, "olcf", s.Schedule(jobs), oracleSchedule(s, jobs))
}

// TestWindowEndIsExclusive: a job whose window ends exactly where a
// full-machine reservation begins fits in the gap before it. Treating the
// window end as inclusive would push it past the reservation.
func TestWindowEndIsExclusive(t *testing.T) {
	s := NewScheduler(10)
	s.CapabilityBoost = false // keep queue order 1, 2, 3
	placed := s.Schedule([]Job{
		{ID: 1, Nodes: 5, Walltime: 4, Submit: 0},  // [0, 4)
		{ID: 2, Nodes: 10, Walltime: 5, Submit: 0}, // reserved [4, 9)
		{ID: 3, Nodes: 5, Walltime: 4, Submit: 0},  // [0, 4) beside job 1
	})
	byID := map[int]Job{}
	for _, j := range placed {
		byID[j.ID] = j
	}
	if byID[2].Start != 4 || byID[3].Start != 0 {
		t.Fatalf("starts: job 2 %v, job 3 %v; want 4 and 0", byID[2].Start, byID[3].Start)
	}
}
