// Online adaptive checkpoint-interval control: instead of solving
// Young/Daly once from a prior MTBF and riding that cadence to the end,
// the controller re-estimates the system MTBF from the failure history the
// run has actually observed and re-solves the Daly optimum at every
// checkpoint-window boundary. Under nonstationary failure regimes — a
// cascade burning through a rack, an infant-mortality window after
// maintenance — the static policy commits far too rarely and bleeds lost
// work; the adaptive policy tightens its cadence as soon as the evidence
// arrives and relaxes it again when the storm passes.
package faults

import (
	"fmt"

	"summitscale/internal/units"
)

// AdaptivePolicy is the online controller's configuration.
type AdaptivePolicy struct {
	// Prior is the initial system-MTBF estimate (e.g. the hardware rate
	// from the machine description).
	Prior units.Seconds
	// PriorWeight is the pseudo-failure mass behind the prior: the
	// posterior MTBF after t seconds and k observed failures is
	// (t + w·Prior)/(k + w). Weight 1 (the default when zero) means the
	// prior counts as one already-observed failure at exactly its mean.
	PriorWeight float64
	// Min and Max clamp the solved interval. Min defaults to the run's
	// checkpoint cost (commits cannot be denser than the write itself);
	// Max <= 0 leaves the upper end to DalyInterval's own MTBF clamp.
	Min, Max units.Seconds
}

// Interval solves the controller's cadence for checkpoint cost delta given
// wall seconds of history holding failures observed faults.
func (p AdaptivePolicy) Interval(delta, wall units.Seconds, failures int) units.Seconds {
	if p.Prior <= 0 {
		panic(fmt.Sprintf("faults: adaptive policy needs a positive prior MTBF, got %v", float64(p.Prior)))
	}
	w := p.PriorWeight
	if w <= 0 {
		w = 1
	}
	post := (wall + units.Seconds(w)*p.Prior) / units.Seconds(float64(failures)+w)
	iv := DalyInterval(delta, post)
	min := p.Min
	if min <= 0 {
		min = delta
	}
	if iv < min {
		iv = min
	}
	if p.Max > 0 && iv > p.Max {
		iv = p.Max
	}
	return iv
}

// SimulateAdaptive replays the run against the trace's fatal failures with
// the interval re-solved by the policy at every segment start — the
// adaptive counterpart of Simulate. The shape must have a positive
// checkpoint cost (Daly needs one).
func SimulateAdaptive(shape RunShape, pol AdaptivePolicy, trace *Trace) Outcome {
	if err := shape.Validate(); err != nil {
		panic(err.Error())
	}
	if shape.CheckpointCost <= 0 {
		panic("faults: adaptive control needs a positive checkpoint cost")
	}
	return simulateDynamic(shape, func(wall units.Seconds, failures int) units.Seconds {
		return pol.Interval(shape.CheckpointCost, wall, failures)
	}, trace.FailureTimes(), nil)
}
