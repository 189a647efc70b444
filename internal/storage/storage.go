// Package storage models Summit's two training-input paths — the shared
// GPFS file system (2.5 TB/s aggregate read) and the node-local NVMe burst
// buffers (~6 GB/s per node, >27 TB/s aggregate) — together with the data
// staging, partitioning, and per-epoch shuffling costs the paper's §VI-B
// I/O discussion weighs.
package storage

import (
	"fmt"
	"math"

	"summitscale/internal/machine"
	"summitscale/internal/obs"
	"summitscale/internal/units"
)

// Store models a place training data can be read from.
type Store interface {
	// ReadBW returns the aggregate read bandwidth available to a job
	// running on the given number of nodes.
	ReadBW(nodes int) units.BytesPerSecond
	Name() string
}

// GPFS is a center-wide shared parallel file system: aggregate bandwidth
// is fixed and shared, with an optional per-node ceiling from the client
// network path.
type GPFS struct {
	FS machine.SharedFS
	// PerNodeCap bounds one node's share (client-side limit); zero means
	// uncapped.
	PerNodeCap units.BytesPerSecond
}

// GPFSFor models the shared file system of a machine description: its
// aggregate rates, with the node's injection bandwidth as the per-node
// cap. It panics when the read bandwidth is not positive — a zero or
// negative rate would silently produce Inf/NaN epoch times.
func GPFSFor(m machine.Machine) *GPFS {
	if !(m.FS.ReadBW > 0) {
		panic(fmt.Sprintf("storage: %s shared-FS read bandwidth must be positive, got %v",
			m.Name, float64(m.FS.ReadBW)))
	}
	return &GPFS{FS: m.FS, PerNodeCap: m.Node.InjectionBW}
}

// NewGPFS models Summit's Alpine file system. The per-node cap is the
// node's injection bandwidth.
func NewGPFS() *GPFS {
	return GPFSFor(machine.Summit())
}

// Name implements Store.
func (g *GPFS) Name() string { return g.FS.Name }

// Degraded returns a copy of the file system with its aggregate read and
// write bandwidth multiplied by factor in (0, 1] — a GPFS brownout window
// (contended metadata servers, rebuilding RAID sets). The per-node cap is
// unchanged: the client network is not what browns out.
func (g *GPFS) Degraded(factor float64) *GPFS {
	if !(factor > 0 && factor <= 1) {
		panic(fmt.Sprintf("storage: brownout factor must be in (0,1], got %v", factor))
	}
	fs := g.FS
	fs.ReadBW = units.BytesPerSecond(float64(fs.ReadBW) * factor)
	fs.WriteBW = units.BytesPerSecond(float64(fs.WriteBW) * factor)
	return &GPFS{FS: fs, PerNodeCap: g.PerNodeCap}
}

// ReadBW implements Store: the job gets at most the aggregate bandwidth,
// and at most nodes × per-node cap.
func (g *GPFS) ReadBW(nodes int) units.BytesPerSecond {
	bw := g.FS.ReadBW
	if g.PerNodeCap > 0 {
		if cap := g.PerNodeCap * units.BytesPerSecond(nodes); cap < bw {
			bw = cap
		}
	}
	return bw
}

// NVMe is the node-local burst buffer: bandwidth scales linearly with
// nodes, but capacity is per node and data must be staged in first.
type NVMe struct {
	Node machine.Node
}

// NVMeFor models the node-local burst buffer of the given node. It panics
// when the node has no drives or non-positive rates (diskless machines
// like JUWELS Booster have no node-local input path; callers should check
// before constructing one).
func NVMeFor(n machine.Node) *NVMe {
	if !(n.NVMe > 0) || !(n.NVMeReadBW > 0) || !(n.NVMeWriteBW > 0) {
		panic(fmt.Sprintf("storage: node %s has no usable node-local NVMe (capacity %v, read %v, write %v)",
			n.Name, float64(n.NVMe), float64(n.NVMeReadBW), float64(n.NVMeWriteBW)))
	}
	return &NVMe{Node: n}
}

// NewNVMe models Summit's node-local drives.
func NewNVMe() *NVMe { return NVMeFor(machine.SummitNode()) }

// Name implements Store.
func (n *NVMe) Name() string { return "node-local NVMe" }

// ReadBW implements Store.
func (n *NVMe) ReadBW(nodes int) units.BytesPerSecond {
	return n.Node.NVMeReadBW * units.BytesPerSecond(nodes)
}

// CapacityPerNode returns the burst buffer size of one node.
func (n *NVMe) CapacityPerNode() units.Bytes { return n.Node.NVMe }

// StagingPlan describes how a dataset is placed on node-local storage.
type StagingPlan int

// Staging strategies.
const (
	// ReplicateDataset copies the full dataset to every node. Only
	// possible when it fits one node's NVMe; shuffling is then free.
	ReplicateDataset StagingPlan = iota
	// PartitionDataset shards the dataset across nodes (1/nodes each).
	// Global per-epoch shuffling then requires redistributing samples.
	PartitionDataset
)

// Stager computes staging and epoch costs for NVMe-based input pipelines.
type Stager struct {
	NVMe *NVMe
	GPFS *GPFS
	// Fabric bandwidth per node for the shuffle exchange.
	ShuffleBW units.BytesPerSecond
}

// StagerFor builds the staging model of a machine description. The
// machine must have node-local storage and a positive injection bandwidth
// for the shuffle exchange.
func StagerFor(m machine.Machine) *Stager {
	if !(m.Node.InjectionBW > 0) {
		panic(fmt.Sprintf("storage: %s injection bandwidth must be positive, got %v",
			m.Name, float64(m.Node.InjectionBW)))
	}
	return &Stager{NVMe: NVMeFor(m.Node), GPFS: GPFSFor(m), ShuffleBW: m.Node.InjectionBW}
}

// Degraded returns a copy of the stager whose shared file system runs at
// the given brownout factor; the node-local drives and the shuffle fabric
// are unaffected. Staging and re-staging times computed through the copy
// reflect the browned-out GPFS.
func (s *Stager) Degraded(factor float64) *Stager {
	return &Stager{NVMe: s.NVMe, GPFS: s.GPFS.Degraded(factor), ShuffleBW: s.ShuffleBW}
}

// PlanFor returns the staging plan that fits: replication when the
// dataset fits one node's NVMe (with 10% headroom), else partitioning; an
// error when even the partition does not fit.
func (s *Stager) PlanFor(dataset units.Bytes, nodes int) (StagingPlan, error) {
	capacity := float64(s.NVMe.CapacityPerNode()) * 0.9
	if float64(dataset) <= capacity {
		return ReplicateDataset, nil
	}
	if float64(dataset)/float64(nodes) <= capacity {
		return PartitionDataset, nil
	}
	return 0, fmt.Errorf("storage: dataset %v exceeds NVMe capacity of %d nodes", dataset, nodes)
}

// StagingTime returns the time to stage the dataset from GPFS onto the
// node-local drives under the given plan. Replication reads the dataset
// once from GPFS and broadcasts over the fabric (pipelined, so the GPFS
// read dominates once nodes are many); partitioning reads 1/nodes per
// node. Staging repeats at every job start — the "costs adding up" of
// §VI-B (hundreds of TB at the start of each hyperparameter-search job).
func (s *Stager) StagingTime(dataset units.Bytes, nodes int, plan StagingPlan) units.Seconds {
	gpfsBW := s.GPFS.ReadBW(nodes)
	switch plan {
	case ReplicateDataset:
		// One copy from GPFS, then a pipelined fabric broadcast; the write
		// bandwidth of the local drive bounds the landing rate.
		read := float64(dataset) / float64(gpfsBW)
		land := float64(dataset) / float64(s.NVMe.Node.NVMeWriteBW)
		return units.Seconds(math.Max(read, land))
	case PartitionDataset:
		perNode := float64(dataset) / float64(nodes)
		read := float64(dataset) / float64(gpfsBW)
		land := perNode / float64(s.NVMe.Node.NVMeWriteBW)
		return units.Seconds(math.Max(read, land))
	default:
		panic("storage: unknown staging plan")
	}
}

// ObservedStagingTime is StagingTime emitting a stage-in span (track
// "storage", starting at job time zero) and byte/plan metrics into ob,
// which may be nil.
func (s *Stager) ObservedStagingTime(ob *obs.Observer, dataset units.Bytes,
	nodes int, plan StagingPlan) units.Seconds {
	t := s.StagingTime(dataset, nodes, plan)
	planName := "replicate"
	if plan == PartitionDataset {
		planName = "partition"
	}
	ob.Span("storage", "io", "stage-in", 0, t,
		obs.Num("bytes", float64(dataset)), obs.Num("nodes", float64(nodes)),
		obs.Str("plan", planName), obs.Num("gpfs_bw", float64(s.GPFS.ReadBW(nodes))))
	ob.Inc("storage.stage_in.count")
	ob.Add("storage.stage_in.bytes", int64(dataset))
	ob.Observe("storage.stage_in.seconds", float64(t))
	return t
}

// EpochShuffleTime returns the cost of a global per-epoch reshuffle under
// the plan: free for replication (any node holds every sample), while a
// partitioned dataset must exchange nearly all bytes over the fabric.
func (s *Stager) EpochShuffleTime(dataset units.Bytes, nodes int, plan StagingPlan) units.Seconds {
	if plan == ReplicateDataset || nodes <= 1 {
		return 0
	}
	perNode := float64(dataset) / float64(nodes)
	// A random permutation moves (nodes-1)/nodes of each node's data.
	moved := perNode * float64(nodes-1) / float64(nodes)
	return units.Seconds(moved / float64(s.ShuffleBW))
}

// TrainingReadRequirement returns the aggregate read bandwidth needed to
// keep `devices` accelerators fed: throughput per device × record size ×
// devices. This is the §VI-B estimate that yields ~20 TB/s for ResNet-50
// on full Summit.
func TrainingReadRequirement(devices int, samplesPerSecPerDevice float64,
	recordBytes units.Bytes) units.BytesPerSecond {
	return units.BytesPerSecond(float64(devices) * samplesPerSecPerDevice * float64(recordBytes))
}

// Sustains reports whether the store can feed the job, and the achieved
// fraction (1 means fully fed; below 1 the input pipeline throttles
// training by that factor).
func Sustains(st Store, nodes int, required units.BytesPerSecond) (bool, float64) {
	avail := st.ReadBW(nodes)
	if avail >= required {
		return true, 1
	}
	return false, float64(avail) / float64(required)
}
