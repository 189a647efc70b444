package storage

import (
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// TestObservedStagingEmitsSpans: an observer receives one stage-in span
// and the stage-in counters, and observing does not change the result.
func TestObservedStagingEmitsSpans(t *testing.T) {
	s := StagerFor(machine.Summit())
	d := units.Bytes(100 * units.TB)
	const nodes = 1024
	ob := obs.New()
	if got, want := s.ObservedStagingTime(ob, d, nodes, PartitionDataset), s.StagingTime(d, nodes, PartitionDataset); got != want {
		t.Fatalf("observed result %v != unobserved %v", got, want)
	}
	if ob.Metrics.Counter("storage.stage_in.count") != 1 {
		t.Fatalf("stage-in count = %d, want 1", ob.Metrics.Counter("storage.stage_in.count"))
	}
	if ob.Trace.Len() != 1 {
		t.Fatalf("trace records = %d, want 1", ob.Trace.Len())
	}
}

func TestReplicateRestageDearerThanPartition(t *testing.T) {
	s := StagerFor(machine.Summit())
	d := units.Bytes(1 * units.TB) // fits one node's NVMe for replication
	rep := s.ReStageTime(d, 512, ReplicateDataset)
	part := s.ReStageTime(d, 512, PartitionDataset)
	if rep <= part {
		t.Fatalf("replicate re-stage %v not dearer than partition %v", rep, part)
	}
}
