package faults

import (
	"testing"

	"summitscale/internal/units"
)

// traceWith builds a single-node trace with fatal failures at the given
// instants — closed-form boundary cases need exact failure placement,
// not a seeded draw.
func traceWith(times ...units.Seconds) *Trace {
	tr := &Trace{Params: Params{Nodes: 1, NodeMTBF: units.Year}, Horizon: 1e6}
	for _, t := range times {
		tr.Events = append(tr.Events, Event{Time: t, Kind: NodeFailure})
	}
	return tr
}

// A failure landing exactly on the checkpoint-commit instant loses
// nothing: the commit completed at that instant, so only the restart is
// paid. Work 100, delta 10, interval 50: the first segment commits over
// [0,60); a failure at exactly t=60 costs R alone.
func TestFailureExactlyAtCommitInstant(t *testing.T) {
	shape := RunShape{TotalWork: 100, CheckpointCost: 10, RestartCost: 20}
	out := Simulate(shape, 50, traceWith(60), nil)
	if out.LostWork != 0 {
		t.Fatalf("failure at the commit instant lost %v work, want 0", out.LostWork)
	}
	if out.Failures != 1 || out.Checkpoints != 1 || out.CkptTime != 10 {
		t.Fatalf("outcome %+v, want 1 failure, 1 committed checkpoint of 10s", out)
	}
	// 100 work + 10 ckpt + 20 restart, zero loss.
	if out.Wall != 130 {
		t.Fatalf("wall %v, want 130", out.Wall)
	}
}

// A failure at the instant the checkpoint write STARTS (end of the work
// chunk, before the commit) discards the whole segment: mid-write
// failures leave nothing durable.
func TestFailureAtCheckpointWriteStart(t *testing.T) {
	shape := RunShape{TotalWork: 100, CheckpointCost: 10, RestartCost: 20}
	out := Simulate(shape, 50, traceWith(50), nil)
	if out.LostWork != 50 {
		t.Fatalf("mid-write failure lost %v, want the full 50s segment", out.LostWork)
	}
	// 100 work redone as 50+50+50... : lost 50 + work 100 + ckpt 10 + restart 20.
	if out.Wall != 180 {
		t.Fatalf("wall %v, want 180", out.Wall)
	}
	if out.Checkpoints != 1 {
		t.Fatalf("checkpoints %d, want 1 (the re-run segment's commit)", out.Checkpoints)
	}
}

// Zero-cost checkpoints: segments commit for free, so Checkpoints and
// CkptTime stay zero (a segment "commits" only when it pays delta) and a
// failure costs exactly the work since the last interval boundary.
func TestZeroCostCheckpoints(t *testing.T) {
	shape := RunShape{TotalWork: 100, CheckpointCost: 0, RestartCost: 20}
	out := Simulate(shape, 25, traceWith(60), nil)
	if out.Checkpoints != 0 || out.CkptTime != 0 {
		t.Fatalf("zero-cost run recorded %d checkpoints / %v write time", out.Checkpoints, out.CkptTime)
	}
	if out.LostWork != 10 {
		t.Fatalf("lost %v, want 10 (60 minus the boundary at 50)", out.LostWork)
	}
	if out.Wall != 130 { // 100 work + 10 lost + 20 restart
		t.Fatalf("wall %v, want 130", out.Wall)
	}
}

// A failure during the restart window restarts the restart: the aborted
// restart's tail never runs, and the trace ends mid-restart — the run
// must still finish, with restart time accounting for the partial
// attempt plus the full retry.
func TestFailureDuringRestartWindow(t *testing.T) {
	shape := RunShape{TotalWork: 100, CheckpointCost: 10, RestartCost: 40}
	// f1=20 mid-segment starts a restart spanning [20,60); f2=50 kills it.
	out := Simulate(shape, 50, traceWith(20, 50), nil)
	if out.Failures != 2 {
		t.Fatalf("failures %d, want 2", out.Failures)
	}
	// Partial restart [20,50) = 30s, then the full retry [50,90) = 40s.
	if out.RestartTime != 70 {
		t.Fatalf("restart time %v, want 70 (30 partial + 40 retry)", out.RestartTime)
	}
	if out.LostWork != 20 {
		t.Fatalf("lost %v, want the 20s of the first segment", out.LostWork)
	}
	// 100 work + 10 ckpt + 20 lost + 70 restarts.
	if out.Wall != 200 {
		t.Fatalf("wall %v, want 200", out.Wall)
	}
}

// The interval clamp: once the checkpoint cost reaches MTBF/2 the
// first-order Daly root exceeds the MTBF and is clamped to it.
func TestDalyIntervalClamp(t *testing.T) {
	mtbf := units.Seconds(1000)
	if iv := DalyInterval(mtbf/2, mtbf); iv != mtbf {
		t.Fatalf("at cost=MTBF/2 interval %v, want exactly MTBF %v", iv, mtbf)
	}
	if iv := DalyInterval(mtbf, mtbf); iv != mtbf {
		t.Fatalf("past the clamp interval %v, want MTBF %v", iv, mtbf)
	}
	if iv := DalyInterval(1, mtbf); !(iv < mtbf) {
		t.Fatalf("cheap checkpoints should sit far below the clamp, got %v", iv)
	}
}
