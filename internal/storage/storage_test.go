package storage

import (
	"math"
	"testing"

	"summitscale/internal/machine"
	"summitscale/internal/models"
	"summitscale/internal/units"
)

// TestResNetIONeedsTwentyTBps anchors the storage model to the paper's
// headline §VI-B figure: full-Summit data-parallel ResNet-50 needs about
// 20 TB/s of aggregate read bandwidth.
func TestResNetIONeedsTwentyTBps(t *testing.T) {
	m := models.ResNet50()
	summit := machine.Summit()
	req := TrainingReadRequirement(summit.TotalGPUs(), m.SingleGPUThroughput, m.RecordBytes)
	if math.Abs(float64(req)-20e12)/20e12 > 0.05 {
		t.Fatalf("ResNet-50 requirement = %v, paper ~20 TB/s", req)
	}
}

// TestGPFSCannotFeedButNVMeCan is the paper's conclusion: GPFS (2.5 TB/s)
// cannot sustain full-Summit training, node-local NVMe (>27 TB/s) can.
func TestGPFSCannotFeedButNVMeCan(t *testing.T) {
	m := models.ResNet50()
	summit := machine.Summit()
	req := TrainingReadRequirement(summit.TotalGPUs(), m.SingleGPUThroughput, m.RecordBytes)

	okG, fracG := Sustains(NewGPFS(), summit.Nodes, req)
	if okG {
		t.Fatal("GPFS claimed to sustain full-Summit ResNet-50")
	}
	if fracG > 0.2 {
		t.Fatalf("GPFS fraction = %v, want ~2.5/20", fracG)
	}
	okN, fracN := Sustains(NewNVMe(), summit.Nodes, req)
	if !okN || fracN != 1 {
		t.Fatalf("NVMe should sustain: ok=%v frac=%v", okN, fracN)
	}
}

func TestNVMeAggregateMatchesPaper(t *testing.T) {
	n := NewNVMe()
	agg := n.ReadBW(4608)
	// Paper: "node-local NVMe has aggregate read bandwidth over 27 TB/s".
	if float64(agg) < 27e12 || float64(agg) > 30e12 {
		t.Fatalf("NVMe aggregate = %v, paper says over 27 TB/s", agg)
	}
}

func TestGPFSBandwidthCaps(t *testing.T) {
	g := NewGPFS()
	// Small jobs are capped by their own injection bandwidth...
	few := g.ReadBW(4)
	if want := 4 * 25e9; float64(few) != want {
		t.Fatalf("4-node GPFS share = %v, want %v", few, want)
	}
	// ...large jobs by the file system aggregate.
	many := g.ReadBW(4608)
	if float64(many) != 2.5e12 {
		t.Fatalf("full-machine GPFS share = %v, want 2.5 TB/s", many)
	}
}

func TestNVMeScalesLinearly(t *testing.T) {
	n := NewNVMe()
	if n.ReadBW(200) != 2*n.ReadBW(100) {
		t.Fatal("NVMe bandwidth not linear in nodes")
	}
}

func TestPlanForReplicationWhenFits(t *testing.T) {
	s := StagerFor(machine.Summit())
	plan, err := s.PlanFor(1*units.TB, 128)
	if err != nil || plan != ReplicateDataset {
		t.Fatalf("1 TB should replicate onto 1.6 TB drives: %v %v", plan, err)
	}
	plan, err = s.PlanFor(100*units.TB, 1024)
	if err != nil || plan != PartitionDataset {
		t.Fatalf("100 TB should partition: %v %v", plan, err)
	}
	if _, err = s.PlanFor(100*units.TB, 8); err == nil {
		t.Fatal("100 TB on 8 nodes should not fit")
	}
}

func TestShuffleFreeWhenReplicated(t *testing.T) {
	s := StagerFor(machine.Summit())
	if got := s.EpochShuffleTime(1*units.TB, 512, ReplicateDataset); got != 0 {
		t.Fatalf("replicated shuffle cost %v", got)
	}
	part := s.EpochShuffleTime(100*units.TB, 512, PartitionDataset)
	if part <= 0 {
		t.Fatal("partitioned shuffle should cost time")
	}
}

func TestStagingCostsGrowWithDataset(t *testing.T) {
	s := StagerFor(machine.Summit())
	// Within a plan, a larger dataset always costs more to stage.
	repSmall := s.StagingTime(100*units.GB, 1024, ReplicateDataset)
	repBig := s.StagingTime(1*units.TB, 1024, ReplicateDataset)
	if repSmall <= 0 || repBig <= repSmall {
		t.Fatalf("replicate staging: %v then %v", repSmall, repBig)
	}
	partSmall := s.StagingTime(10*units.TB, 1024, PartitionDataset)
	partBig := s.StagingTime(100*units.TB, 1024, PartitionDataset)
	if partSmall <= 0 || partBig <= partSmall {
		t.Fatalf("partition staging: %v then %v", partSmall, partBig)
	}
	// Replication lands the whole dataset on every node's drive, so it is
	// slower than partitioning the same bytes.
	if s.StagingTime(1*units.TB, 1024, ReplicateDataset) <= s.StagingTime(1*units.TB, 1024, PartitionDataset) {
		t.Fatal("replication should cost at least as much as partitioning")
	}
}

// TestHundredsOfTBStagingIsExpensive reflects §VI-B's note that staging
// "hundreds of TBs at the start of each training job" adds real cost: at
// GPFS bandwidth, 200 TB takes more than a minute even at full aggregate
// rate.
func TestHundredsOfTBStagingIsExpensive(t *testing.T) {
	s := StagerFor(machine.Summit())
	tm := s.StagingTime(200*units.TB, 4608, PartitionDataset)
	if float64(tm) < 60 {
		t.Fatalf("200 TB staged in %v — unrealistically fast", tm)
	}
}

func TestShuffleTimeDecreasesWithNodes(t *testing.T) {
	s := StagerFor(machine.Summit())
	t64 := s.EpochShuffleTime(10*units.TB, 64, PartitionDataset)
	t512 := s.EpochShuffleTime(10*units.TB, 512, PartitionDataset)
	if t512 >= t64 {
		t.Fatalf("shuffle time should shrink with nodes: %v vs %v", t512, t64)
	}
}

// TestDegradedGPFSSlowsStaging pins the brownout model: a browned-out
// shared file system stretches GPFS-bound staging by ~1/factor and never
// speeds anything up; factor 1 is a no-op.
func TestDegradedGPFSSlowsStaging(t *testing.T) {
	s := StagerFor(machine.Summit())
	const dataset, nodes = 200 * units.TB, 2048
	clean := s.StagingTime(dataset, nodes, PartitionDataset)
	brown := s.Degraded(0.25).StagingTime(dataset, nodes, PartitionDataset)
	if brown <= clean {
		t.Fatalf("brownout staging %v not slower than clean %v", brown, clean)
	}
	if ratio := float64(brown) / float64(clean); ratio < 3.9 || ratio > 4.1 {
		t.Fatalf("quarter-bandwidth brownout stretched staging %.2fx, want ~4x", ratio)
	}
	if same := s.Degraded(1).StagingTime(dataset, nodes, PartitionDataset); same != clean {
		t.Fatalf("factor-1 brownout changed staging: %v vs %v", same, clean)
	}
}

func TestDegradedGPFSMonotone(t *testing.T) {
	s := StagerFor(machine.Summit())
	prev := units.Seconds(0)
	for _, f := range []float64{1, 0.8, 0.5, 0.2, 0.05} {
		tm := s.Degraded(f).StagingTime(100*units.TB, 1024, PartitionDataset)
		if tm < prev {
			t.Fatalf("worse brownout factor %v staged faster: %v < %v", f, tm, prev)
		}
		prev = tm
	}
}

func TestDegradedRejectsBadFactor(t *testing.T) {
	for _, f := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("brownout factor %v accepted", f)
				}
			}()
			NewGPFS().Degraded(f)
		}()
	}
}
