package serve

import (
	"summitscale/internal/platform"
	"summitscale/internal/units"
)

// replicaPool tracks one model's serving replicas on the simulated
// clock. Dispatch is deterministic: the free replica with the lowest
// index wins, and closed batches wait in FIFO order when all replicas
// are busy or lost.
type replicaPool struct {
	// busyUntil[i] is when replica i finishes its current batch; zero or
	// past means free. A lost replica is marked with busyUntil = +inf.
	busyUntil []units.Seconds
	lost      []bool
	// waiting holds the closed batches awaiting a free replica, oldest at
	// waiting[head].
	waiting [][]Request
	head    int

	started   int // batches dispatched into service
	lostCount int
}

func newReplicaPool(n int) *replicaPool {
	if n < 1 {
		n = 1
	}
	return &replicaPool{
		busyUntil: make([]units.Seconds, n),
		lost:      make([]bool, n),
	}
}

// free returns the lowest-index replica idle at time t, or -1.
func (p *replicaPool) free(t units.Seconds) int {
	for i, until := range p.busyUntil {
		if !p.lost[i] && until <= t {
			return i
		}
	}
	return -1
}

// backlog is the number of waiting batches.
func (p *replicaPool) backlog() int { return len(p.waiting) - p.head }

// next pops the oldest waiting batch. Once half the array is consumed the
// rest moves to the front, so the queue reuses one array instead of
// reallocating as it slides.
func (p *replicaPool) next() []Request {
	b := p.waiting[p.head]
	p.head++
	if 2*p.head >= len(p.waiting) {
		n := copy(p.waiting, p.waiting[p.head:])
		clear(p.waiting[n:])
		p.waiting, p.head = p.waiting[:n], 0
	}
	return b
}

// alive reports how many replicas remain.
func (p *replicaPool) alive() int {
	n := 0
	for _, l := range p.lost {
		if !l {
			n++
		}
	}
	return n
}

// fail marks the lowest-index live replica lost (graceful drain: a busy
// replica finishes its in-flight batch first; the router re-checks the
// backlog at that completion). It reports whether a replica was lost.
func (p *replicaPool) fail() bool {
	for i, l := range p.lost {
		if !l {
			p.lost[i] = true
			p.lostCount++
			return true
		}
	}
	return false
}

// anyLost reports whether a replica is currently marked lost.
func (p *replicaPool) anyLost() bool {
	for _, l := range p.lost {
		if l {
			return true
		}
	}
	return false
}

// repair returns the lowest-index lost replica to service.
func (p *replicaPool) repair() bool {
	for i, l := range p.lost {
		if l {
			p.lost[i] = false
			return true
		}
	}
	return false
}

// ReplicasFor sizes one model's replica pool from the platform registry:
// the serving allocation is one node per 4096 (at least one — inference
// rides alongside the training campaign, it doesn't own the machine),
// every GPU on those nodes hosts a replica, and the GPUs divide evenly
// across the model fleet. CPU-only platforms serve one replica per
// allocated node.
func ReplicasFor(p platform.Platform, nModels int) int {
	if nModels < 1 {
		nModels = 1
	}
	allocNodes := p.Nodes / 4096
	if allocNodes < 1 {
		allocNodes = 1
	}
	perNode := p.Node.GPUs
	if perNode < 1 {
		perNode = 1
	}
	r := allocNodes * perNode / nModels
	if r < 1 {
		r = 1
	}
	return r
}
