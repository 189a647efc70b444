// Package sched simulates Summit's batch scheduling of allocation-program
// workloads (§II-B): jobs from INCITE, ALCC and DD compete for the
// machine's 4608 nodes under FIFO-with-backfill scheduling, capability
// priority (bigger jobs first, as leadership-class policy prefers), and
// per-program share accounting. It supplies the machine-utilization
// context in which the paper's AI training jobs ran.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"summitscale/internal/stats"
)

// Job is one batch job.
type Job struct {
	ID       int
	Program  string
	Nodes    int
	Walltime float64 // requested, seconds
	Submit   float64 // submission time

	// Scheduling results.
	Start float64
	End   float64
}

// NodeHours returns the job's node-seconds / 3600.
func (j Job) NodeHours() float64 { return float64(j.Nodes) * j.Walltime / 3600 }

// Wait returns the queue wait.
func (j Job) Wait() float64 { return j.Start - j.Submit }

// Scheduler is an event-free list scheduler over a fixed node pool: FIFO
// by submission with conservative backfill (a later job may start early
// only if it cannot delay any earlier job's reserved start).
type Scheduler struct {
	TotalNodes int
	// CapabilityBoost sorts equal-submit-time jobs larger-first, the
	// leadership-computing queue policy.
	CapabilityBoost bool
}

// NewScheduler creates a scheduler for a machine of the given size.
func NewScheduler(totalNodes int) *Scheduler {
	if totalNodes <= 0 {
		panic("sched: non-positive machine size")
	}
	return &Scheduler{TotalNodes: totalNodes, CapabilityBoost: true}
}

// freeSlot describes an interval with constant free node count.
type freeSlot struct {
	from  float64
	nodes int
}

// Schedule assigns Start/End to every job and returns them sorted by
// start time. The algorithm processes jobs in queue order, placing each
// at the earliest time enough nodes are free given already-placed jobs;
// because placement is earliest-fit against the full timeline, this is
// conservative backfill.
func (s *Scheduler) Schedule(jobs []Job) []Job {
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

	var prof profile
	placed := make([]Job, 0, len(queue))
	for _, j := range queue {
		if j.Nodes > s.TotalNodes {
			panic(fmt.Sprintf("sched: job %d wants %d of %d nodes", j.ID, j.Nodes, s.TotalNodes))
		}
		j.Start = prof.earliestStart(j, s.TotalNodes-j.Nodes)
		j.End = j.Start + j.Walltime
		prof.place(j)
		placed = append(placed, j)
	}
	sort.SliceStable(placed, func(i, j int) bool { return placed[i].Start < placed[j].Start })
	return placed
}

// profile is the machine's node usage over time given the jobs placed so
// far, maintained incrementally as each job is placed.
//
// Usage is a right-continuous step function: it rises at a job's Start,
// falls at its End, and is constant in between. at holds its sorted
// breakpoints (every placed Start and End) and busy[k] the nodes in use
// on [at[k], at[k+1]); usage before at[0] is zero. ends holds every
// placed job's End, sorted, since an End is the only moment a waiting
// job can newly fit.
type profile struct {
	at   []float64
	busy []int
	ends []float64
}

// earliestStart finds the first candidate start t (j.Submit, then each
// placed End after it, ascending) at which usage stays <= limit on all of
// [t, t+Walltime). It checks usage at t and at every breakpoint inside
// the window. Because usage only rises at a Start, its maximum over the
// window is reached at t or at a Start inside it; the extra End
// breakpoints never exceed that maximum, so this is exactly the test
// "no point of [t, t+Walltime) is over-full".
func (p *profile) earliestStart(j Job, limit int) float64 {
	if p.fits(j.Submit, j.Walltime, limit) {
		return j.Submit
	}
	for _, t := range p.ends[sort.SearchFloat64s(p.ends, j.Submit):] {
		if t > j.Submit && p.fits(t, j.Walltime, limit) {
			return t
		}
	}
	// Unreachable: after the last End the machine is idle.
	panic("sched: no feasible start")
}

// fits reports whether usage stays <= limit at t and at every breakpoint
// strictly inside (t, t+walltime).
func (p *profile) fits(t, walltime float64, limit int) bool {
	// k is the last breakpoint <= t: usage at t is busy[k].
	k := sort.Search(len(p.at), func(i int) bool { return p.at[i] > t }) - 1
	if k >= 0 && p.busy[k] > limit {
		return false
	}
	end := t + walltime
	for k++; k < len(p.at) && p.at[k] < end; k++ {
		if p.busy[k] > limit {
			return false
		}
	}
	return true
}

// place adds j's nodes to the usage on [j.Start, j.End) and records its
// End as a candidate start for later jobs. A job whose End does not
// exceed its Start occupies no point in time and only adds the candidate.
func (p *profile) place(j Job) {
	p.ends = slices.Insert(p.ends, sort.SearchFloat64s(p.ends, j.End), j.End)
	if !(j.Start < j.End) {
		return
	}
	lo := p.breakpoint(j.Start)
	hi := p.breakpoint(j.End)
	for k := lo; k < hi; k++ {
		p.busy[k] += j.Nodes
	}
}

// breakpoint returns the index of breakpoint x, inserting it (carrying
// the usage of the step it splits) if it is not there yet.
func (p *profile) breakpoint(x float64) int {
	i := sort.SearchFloat64s(p.at, x)
	if i < len(p.at) && p.at[i] == x {
		return i
	}
	prev := 0
	if i > 0 {
		prev = p.busy[i-1]
	}
	p.at = slices.Insert(p.at, i, x)
	p.busy = slices.Insert(p.busy, i, prev)
	return i
}

// Stats summarizes a schedule.
type Stats struct {
	Makespan float64 // latest job end
	// FirstStart is the earliest job start: the beginning of the window
	// the machine is actually in use.
	FirstStart float64
	// Utilization is node-time used / (TotalNodes * (Makespan -
	// FirstStart)). Measuring the denominator from the first start rather
	// than from t=0 keeps the metric meaningful for campaigns whose first
	// job submits late: idle time before any job exists is not the
	// scheduler's to waste.
	Utilization  float64
	MeanWait     float64
	MaxWait      float64
	HoursByGroup map[string]float64 // node-hours per program
}

// Span returns the busy window the utilization is measured over.
func (st Stats) Span() float64 { return st.Makespan - st.FirstStart }

// Summarize computes schedule statistics.
func (s *Scheduler) Summarize(placed []Job) Stats {
	st := Stats{HoursByGroup: map[string]float64{}}
	if len(placed) == 0 {
		return st
	}
	var usedNodeTime, waitSum float64
	st.FirstStart = placed[0].Start
	for _, j := range placed {
		if j.End > st.Makespan {
			st.Makespan = j.End
		}
		if j.Start < st.FirstStart {
			st.FirstStart = j.Start
		}
		usedNodeTime += float64(j.Nodes) * j.Walltime
		w := j.Wait()
		waitSum += w
		if w > st.MaxWait {
			st.MaxWait = w
		}
		st.HoursByGroup[j.Program] += j.NodeHours()
	}
	st.MeanWait = waitSum / float64(len(placed))
	if span := st.Span(); span > 0 {
		st.Utilization = usedNodeTime / (float64(s.TotalNodes) * span)
	}
	return st
}

// ProgramShare describes an allocation program's target fraction and job
// profile for workload synthesis.
type ProgramShare struct {
	Name string
	// Share of total node-hours (INCITE ~0.6, ALCC ~0.2, DD ~0.2).
	Share float64
	// Node-count distribution: log-uniform between MinNodes and MaxNodes.
	MinNodes, MaxNodes int
	// MeanWalltime of exponentially distributed walltimes (seconds).
	MeanWalltime float64
}

// OLCFShares returns the paper's §II-B allocation split with
// leadership-scale INCITE jobs, mid-scale ALCC, and small DD jobs.
func OLCFShares() []ProgramShare {
	return []ProgramShare{
		{Name: "INCITE", Share: 0.60, MinNodes: 256, MaxNodes: 4608, MeanWalltime: 6 * 3600},
		{Name: "ALCC", Share: 0.20, MinNodes: 64, MaxNodes: 1024, MeanWalltime: 4 * 3600},
		{Name: "DD", Share: 0.20, MinNodes: 1, MaxNodes: 256, MeanWalltime: 2 * 3600},
	}
}

// SynthesizeWorkload draws jobs matching the program shares over a
// submission horizon, stopping when each program's node-hour budget
// (share × totalNodeHours) is filled.
func SynthesizeWorkload(rng *stats.RNG, shares []ProgramShare, totalNodeHours, horizon float64) []Job {
	var jobs []Job
	id := 0
	for _, ps := range shares {
		budget := ps.Share * totalNodeHours
		var used float64
		for used < budget {
			nodes := logUniformInt(rng, ps.MinNodes, ps.MaxNodes)
			wall := rng.ExpFloat64() * ps.MeanWalltime
			if wall < 600 {
				wall = 600
			}
			j := Job{
				ID: id, Program: ps.Name, Nodes: nodes, Walltime: wall,
				Submit: rng.Float64() * horizon,
			}
			id++
			used += j.NodeHours()
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// logUniformInt draws log-uniformly in [lo, hi].
func logUniformInt(rng *stats.RNG, lo, hi int) int {
	if lo >= hi {
		return lo
	}
	bits := 0
	for v := hi / lo; v > 0; v >>= 1 {
		bits++
	}
	n := lo << rng.Intn(bits)
	if n > hi {
		n = hi
	}
	return n
}
