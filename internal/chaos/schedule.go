package chaos

import (
	"fmt"
	"sort"

	"summitscale/internal/faults"
	"summitscale/internal/stats"
	"summitscale/internal/units"
	"summitscale/internal/workflow"
)

// Schedule is a compiled scenario: every correlated directive lowered to
// concrete, seeded events the simulators consume. Compiling the same
// (scenario, seed) pair always yields the same schedule, byte for byte.
type Schedule struct {
	Scenario *Scenario
	Seed     uint64
	// Trace carries the node-failure, straggler, and link-degrade events
	// (background process plus cascades, storms, and flap windows) in the
	// exchange format every simulator already speaks.
	Trace *faults.Trace
	// Brownouts are the storage-bandwidth windows, sorted by start.
	Brownouts []Brownout
	// Outages are the facility windows, sorted by facility then start.
	Outages []Outage
	// Repairs are the node-return events, sorted by time.
	Repairs []Repair
}

// Compile lowers the scenario at the given seed. Each directive class
// draws from its own split RNG stream in declaration order, so adding a
// storm never perturbs where a cascade lands.
func (sc *Scenario) Compile(seed uint64) (*Schedule, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(seed)
	bgRNG, cascadeRNG, flapRNG, stormRNG := root.Split(), root.Split(), root.Split(), root.Split()
	// Split AFTER the original four: scenarios without sdc directives
	// compile to byte-identical schedules (and goldens) either way.
	sdcRNG := root.Split()

	params := faults.Params{Nodes: sc.Nodes, NodeMTBF: faults.DefaultNodeMTBF, Shape: 1}
	var events []faults.Event

	if b := sc.Background; b != nil {
		params.NodeMTBF = b.NodeMTBF
		params.Shape = b.Shape
		// The background is pure fatal failures; stragglers and link noise
		// come from the scenario's correlated directives.
		bg := params.Generate(bgRNG.Uint64(), sc.Horizon)
		events = append(events, bg.Events...)
	}

	for _, c := range sc.Cascades {
		rng := cascadeRNG.Split()
		base := 0
		if sc.Nodes > c.Spread {
			base = rng.Intn(sc.Nodes - c.Spread + 1)
		}
		t := c.At
		for i := 0; i < c.Count; i++ {
			// Temporal correlation: one failure per spacing, with up to a
			// quarter-spacing of seeded jitter; spatial correlation: every
			// strike lands inside the cascade's node window.
			jitter := units.Seconds(rng.Float64()) * c.Spacing / 4
			at := t + jitter
			if at >= sc.Horizon {
				break
			}
			events = append(events, faults.Event{
				Time: at,
				Kind: faults.NodeFailure,
				Node: base + rng.Intn(c.Spread),
			})
			t += c.Spacing
		}
	}

	for _, f := range sc.Flaps {
		rng := flapRNG.Split()
		node := rng.Intn(sc.Nodes)
		for t := f.From; t < f.To; t += f.Period {
			on := f.Period * units.Seconds(f.Duty)
			if t+on > f.To {
				on = f.To - t
			}
			events = append(events, faults.Event{
				Time:     t,
				Kind:     faults.LinkDegrade,
				Node:     node,
				Duration: on,
				Factor:   f.Factor,
			})
		}
	}

	for _, s := range sc.Storms {
		rng := stormRNG.Split()
		for i := 0; i < s.Count; i++ {
			// Onsets scatter across the storm's first fifth; every episode
			// ends with the storm.
			onset := s.At + units.Seconds(rng.Float64())*s.For/5
			events = append(events, faults.Event{
				Time:     onset,
				Kind:     faults.Straggler,
				Node:     rng.Intn(sc.Nodes),
				Duration: s.At + s.For - onset,
				Factor:   s.Factor,
			})
		}
	}

	for _, s := range sc.SDCs {
		rng := sdcRNG.Split()
		var kind faults.Kind
		switch s.Kind {
		case "flip":
			kind = faults.SilentCorruption
		case "torn":
			kind = faults.TornWrite
		case "stale":
			kind = faults.StaleReplica
		}
		for i := 0; i < s.Count; i++ {
			e := faults.Event{
				Time: s.At + units.Seconds(rng.Float64())*s.For,
				Kind: kind,
				Node: rng.Intn(sc.Nodes),
			}
			if kind == faults.SilentCorruption {
				e.Word = rng.Intn(1 << 20)
				e.Bit = rng.Intn(64)
			}
			events = append(events, e)
		}
	}

	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })

	sched := &Schedule{
		Scenario: sc,
		Seed:     seed,
		Trace: &faults.Trace{
			Params:  params,
			Seed:    seed,
			Horizon: sc.Horizon,
			Events:  events,
		},
		Brownouts: append([]Brownout(nil), sc.Brownouts...),
		Outages:   append([]Outage(nil), sc.Outages...),
		Repairs:   append([]Repair(nil), sc.Repairs...),
	}
	sort.SliceStable(sched.Brownouts, func(i, j int) bool {
		return sched.Brownouts[i].From < sched.Brownouts[j].From
	})
	sort.SliceStable(sched.Outages, func(i, j int) bool {
		a, b := sched.Outages[i], sched.Outages[j]
		if a.Facility != b.Facility {
			return a.Facility < b.Facility
		}
		return a.From < b.From
	})
	sort.SliceStable(sched.Repairs, func(i, j int) bool {
		return sched.Repairs[i].At < sched.Repairs[j].At
	})
	return sched, nil
}

// WorstBrownout returns the deepest brownout factor in the schedule (1
// when there is none).
func (s *Schedule) WorstBrownout() float64 {
	worst := 1.0
	for _, b := range s.Brownouts {
		if b.Factor < worst {
			worst = b.Factor
		}
	}
	return worst
}

// LinkFactorAt returns the worst link-bandwidth multiplier active at t.
func (s *Schedule) LinkFactorAt(t units.Seconds) float64 {
	return s.Trace.LinkFactorAt(t)
}

// FacilityOutages lowers the outage windows into the workflow failover
// policy's schedule format.
func (s *Schedule) FacilityOutages() workflow.FacilityOutages {
	out := workflow.FacilityOutages{}
	for _, o := range s.Outages {
		out[o.Facility] = append(out[o.Facility], workflow.Window{From: o.From, To: o.To})
	}
	return out
}

// Summary renders the schedule census. The SDC segment appears only when
// the trace carries corruption events, keeping pre-SDC summaries stable.
func (s *Schedule) Summary() string {
	base := fmt.Sprintf("%s seed=%d: %d node-failure, %d straggler, %d link-degrade; %d brownout window(s), %d outage(s), %d repair(s)",
		s.Scenario.Name, s.Seed,
		s.Trace.Count(faults.NodeFailure), s.Trace.Count(faults.Straggler),
		s.Trace.Count(faults.LinkDegrade),
		len(s.Brownouts), len(s.Outages), len(s.Repairs))
	if n := s.Trace.Count(faults.SilentCorruption) + s.Trace.Count(faults.TornWrite) +
		s.Trace.Count(faults.StaleReplica); n > 0 {
		base += fmt.Sprintf("; %d silent-corruption, %d torn-write, %d stale-replica",
			s.Trace.Count(faults.SilentCorruption), s.Trace.Count(faults.TornWrite),
			s.Trace.Count(faults.StaleReplica))
	}
	return base
}
