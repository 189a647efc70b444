package chaos

import (
	"fmt"

	"summitscale/internal/faults"
	"summitscale/internal/netsim"
	"summitscale/internal/units"
)

// CheckInvariants proves one scenario's compiled schedule and engine run
// stayed physical:
//
//  1. Replay determinism — compiling and running the same (scenario,
//     seed) twice yields byte-identical schedules and reports.
//  2. Non-negative time — every event onset lies in [0, horizon), every
//     duration is non-negative, and every simulated wall time covers at
//     least the useful work it accounts.
//  3. Byte conservation — degraded collectives move exactly the bytes a
//     clean ring moves; flapping links delay traffic, never create or
//     destroy it.
//  4. Monotone degradation — the same scenario at double intensity
//     (Scaled(2)) never finishes any probe faster, and a policy never
//     loses to its own absence (grow-back vs shrink-only, failover vs
//     wait-out).
//
// It returns the first violated invariant as a descriptive error.
// Scenarios that declare silent-corruption bursts must also pass
// CheckSDCInvariants on their ablation report; callers that run the
// ablation anyway hand it that report instead of running it again here.
func CheckInvariants(sc *Scenario, seed uint64, cfg Config) error {
	// 1. Schedule replay determinism.
	a, err := sc.Compile(seed)
	if err != nil {
		return err
	}
	b, err := sc.Compile(seed)
	if err != nil {
		return err
	}
	if err := sameSchedule(a, b); err != nil {
		return fmt.Errorf("chaos: schedule replay diverged: %w", err)
	}

	// 2. Non-negative time on the compiled schedule.
	prev := units.Seconds(0)
	for i, e := range a.Trace.Events {
		if e.Time < prev {
			return fmt.Errorf("chaos: event %d out of order (%v after %v)", i, e.Time, prev)
		}
		prev = e.Time
		if e.Time < 0 || e.Time >= sc.Horizon {
			return fmt.Errorf("chaos: event %d onset %v outside [0, %v)", i, e.Time, sc.Horizon)
		}
		if e.Duration < 0 {
			return fmt.Errorf("chaos: event %d negative duration %v", i, e.Duration)
		}
		if e.Node < 0 || e.Node >= sc.Nodes {
			return fmt.Errorf("chaos: event %d node %d outside [0, %d)", i, e.Node, sc.Nodes)
		}
	}

	// Engine replay determinism (the report is a pure function of the
	// inputs; Obs is omitted so instrumentation cannot mask divergence).
	pure := Config{Platform: cfg.Platform, RingNodes: cfg.RingNodes}
	r1, err := Run(sc, seed, pure)
	if err != nil {
		return err
	}
	r2, err := Run(sc, seed, pure)
	if err != nil {
		return err
	}
	if r1.Render() != r2.Render() {
		return fmt.Errorf("chaos: engine replay diverged for %s seed %d", sc.Name, seed)
	}

	// 2b. Wall times cover the work they account.
	for _, o := range []struct {
		name string
		out  faults.Outcome
	}{{"static", r1.Static}, {"adaptive", r1.Adaptive}} {
		if o.out.Wall < r1.Shape.TotalWork {
			return fmt.Errorf("chaos: %s wall %v below useful work %v",
				o.name, o.out.Wall, r1.Shape.TotalWork)
		}
		if o.out.LostWork < 0 || o.out.RestartTime < 0 || o.out.CkptTime < 0 {
			return fmt.Errorf("chaos: %s outcome accounts negative time: %+v", o.name, o.out)
		}
	}
	// The degraded mean integrates the link factor piecewise, so when no
	// flap window overlaps a launch it re-derives the clean time through a
	// different summation order, accumulating ~1e-8 relative roundoff over
	// the ring steps; real degradation is per-mille or more, so a 1e-6
	// relative slack separates FP noise from a genuine violation.
	if r1.ChaosAllReduce < r1.CleanAllReduce*(1-1e-6) {
		return fmt.Errorf("chaos: degraded allreduce %v beat the clean fabric %v",
			r1.ChaosAllReduce, r1.CleanAllReduce)
	}
	if r1.BrownoutStage < r1.CleanStage {
		return fmt.Errorf("chaos: brownout staging %v beat clean staging %v",
			r1.BrownoutStage, r1.CleanStage)
	}

	// 3. Byte conservation (Run checks every launch; re-derive the closed
	// form here so the invariant holds independently of the engine).
	if want := netsim.RingAllReduceBytes(r1.RingNodes, probeGradient); r1.BytesPerMember != want {
		return fmt.Errorf("chaos: collective moved %v per member, ring algebra says %v",
			r1.BytesPerMember, want)
	}

	// 4a. Policies never lose to their absence.
	if r1.GrowBackWall > r1.ShrinkOnlyWall {
		return fmt.Errorf("chaos: grow-back wall %v exceeds shrink-only %v",
			r1.GrowBackWall, r1.ShrinkOnlyWall)
	}
	if r1.Failover.Makespan > r1.WaitOut.Makespan {
		return fmt.Errorf("chaos: failover makespan %v exceeds wait-out %v",
			r1.Failover.Makespan, r1.WaitOut.Makespan)
	}

	// 4b. Monotone degradation under intensity scaling.
	harder, err := Run(sc.Scaled(2), seed, pure)
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name     string
		mild, hw units.Seconds
	}{
		{"static wall", r1.Static.Wall, harder.Static.Wall},
		{"chaos allreduce", r1.ChaosAllReduce, harder.ChaosAllReduce},
		{"brownout staging", r1.BrownoutStage, harder.BrownoutStage},
		{"shrink-only wall", r1.ShrinkOnlyWall, harder.ShrinkOnlyWall},
	} {
		if m.hw < m.mild*(1-1e-6) {
			return fmt.Errorf("chaos: %s improved under 2x intensity: %v -> %v",
				m.name, m.mild, m.hw)
		}
	}
	return nil
}

// sameSchedule compares two compiled schedules field by field.
func sameSchedule(a, b *Schedule) error {
	if len(a.Trace.Events) != len(b.Trace.Events) {
		return fmt.Errorf("%d vs %d events", len(a.Trace.Events), len(b.Trace.Events))
	}
	for i := range a.Trace.Events {
		if a.Trace.Events[i] != b.Trace.Events[i] {
			return fmt.Errorf("event %d: %+v vs %+v", i, a.Trace.Events[i], b.Trace.Events[i])
		}
	}
	if len(a.Brownouts) != len(b.Brownouts) || len(a.Outages) != len(b.Outages) ||
		len(a.Repairs) != len(b.Repairs) {
		return fmt.Errorf("window census differs")
	}
	for i := range a.Brownouts {
		if a.Brownouts[i] != b.Brownouts[i] {
			return fmt.Errorf("brownout %d differs", i)
		}
	}
	for i := range a.Outages {
		if a.Outages[i] != b.Outages[i] {
			return fmt.Errorf("outage %d differs", i)
		}
	}
	for i := range a.Repairs {
		if a.Repairs[i] != b.Repairs[i] {
			return fmt.Errorf("repair %d differs", i)
		}
	}
	return nil
}
