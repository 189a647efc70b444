// Package mp is an MPI-like message-passing substrate whose ranks are
// goroutines and whose links are Go channels. It provides the point-to-point
// primitives and the collectives (broadcast, gather, ring and hierarchical
// allreduce) that distributed data-parallel training needs.
//
// Every transfer is counted, so higher layers (internal/ddl, the ablation
// benchmarks) can compare the byte volumes of collective algorithms against
// the analytic α–β models in internal/netsim.
package mp

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// message is a tagged payload between two ranks.
type message struct {
	tag  int
	data []float64
}

// World owns the channels connecting a fixed set of ranks. Links are
// materialized lazily on first use: a P-rank world holds P² pointer slots
// but allocates a channel only for pairs that actually communicate, so
// large worlds built for analytic modelling (netsim cross-checks, counter
// accounting) cost O(P²) words instead of O(P²) buffered channels.
type World struct {
	size  int
	links []atomic.Pointer[chan message] // links[src*size+dst]

	linkMu     sync.Mutex // serializes link creation
	linksAlloc atomic.Int64

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
}

// NewWorld creates a fully connected world of the given size. No channels
// are allocated until a pair of ranks first communicates.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mp: world size must be positive")
	}
	return &World{size: size, links: make([]atomic.Pointer[chan message], size*size)}
}

// link returns the src→dst channel, creating it on first use. The fast path
// is a single atomic load; creation is serialized under linkMu with a
// double-check so exactly one channel ever backs a pair.
func (w *World) link(src, dst int) chan message {
	slot := &w.links[src*w.size+dst]
	if ch := slot.Load(); ch != nil {
		return *ch
	}
	w.linkMu.Lock()
	defer w.linkMu.Unlock()
	if ch := slot.Load(); ch != nil {
		return *ch
	}
	ch := make(chan message, 64)
	slot.Store(&ch)
	w.linksAlloc.Add(1)
	return ch
}

// AllocatedLinks returns how many point-to-point channels have been
// materialized so far. A world that never communicates reports zero.
func (w *World) AllocatedLinks() int64 { return w.linksAlloc.Load() }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// BytesSent returns the total payload bytes sent so far (8 per float64).
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the total number of point-to-point messages.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// Run executes f concurrently on every rank and waits for all to finish.
// A panic on any rank is re-raised on the caller after all ranks stop.
func (w *World) Run(f func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
				}
			}()
			f(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mp: rank %d panicked: %v", r, p))
		}
	}
}

// Comm is one rank's endpoint in a World.
type Comm struct {
	world *World
	rank  int
	// pending holds received-but-unmatched messages per source.
	pending [][]message
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send transmits a copy of data to rank dst with the given tag.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mp: Send to invalid rank %d", dst))
	}
	if dst == c.rank {
		panic("mp: Send to self")
	}
	payload := append([]float64(nil), data...)
	c.world.link(c.rank, dst) <- message{tag: tag, data: payload}
	c.world.bytesSent.Add(int64(8 * len(data)))
	c.world.msgsSent.Add(1)
}

// Recv blocks until a message with the given tag arrives from src and
// returns its payload. Messages with other tags from src are buffered.
func (c *Comm) Recv(src, tag int) []float64 {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mp: Recv from invalid rank %d", src))
	}
	if src == c.rank {
		panic("mp: Recv from self")
	}
	if c.pending == nil {
		c.pending = make([][]message, c.world.size)
	}
	// Check buffered messages first.
	for i, m := range c.pending[src] {
		if m.tag == tag {
			c.pending[src] = append(c.pending[src][:i], c.pending[src][i+1:]...)
			return m.data
		}
	}
	for {
		m := <-c.world.link(src, c.rank)
		if m.tag == tag {
			return m.data
		}
		c.pending[src] = append(c.pending[src], m)
	}
}

// tags used by collectives; user tags should stay below collectiveTagBase.
const (
	collectiveTagBase = 1 << 20
	collectiveTagStep = 1 << 16 // room for per-round offsets within a collective

	tagBcast  = collectiveTagBase + 1*collectiveTagStep
	tagRingRS = collectiveTagBase + 3*collectiveTagStep
	tagRingAG = collectiveTagBase + 4*collectiveTagStep
	tagGather = collectiveTagBase + 6*collectiveTagStep
)

// Bcast distributes root's data to every rank using a binomial tree and
// returns each rank's copy.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p := c.world.size
	if p == 1 {
		return append([]float64(nil), data...)
	}
	// Work in a rotated space where root is rank 0.
	vrank := (c.rank - root + p) % p
	var buf []float64
	if vrank == 0 {
		buf = append([]float64(nil), data...)
	} else {
		// Receive from parent: clear the highest set bit, the inverse of
		// the children rule below.
		parent := (vrank - nextPow2(vrank+1)/2 + root) % p
		buf = c.Recv(parent, tagBcast)
	}
	// Send to children: set each bit above the lowest set bit range.
	for bit := nextPow2(vrank + 1); bit < p; bit *= 2 {
		if vrank+bit < p {
			child := (vrank + bit + root) % p
			c.Send(child, tagBcast, buf)
		}
	}
	return buf
}

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// AllReduceRing sums data across all ranks with the bandwidth-optimal ring
// algorithm: P-1 reduce-scatter steps followed by P-1 allgather steps, each
// moving 1/P of the vector. This is the algorithm Summit's training stacks
// (NCCL/Horovod) use for large gradients, and the one whose 2(P-1)/P · N/β
// cost the paper's §VI-B communication analysis assumes.
func (c *Comm) AllReduceRing(data []float64) []float64 {
	p := c.world.size
	acc := append([]float64(nil), data...)
	if p == 1 {
		return acc
	}
	n := len(acc)
	// Chunk boundaries: chunk i is [bounds[i], bounds[i+1]).
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p

	// Reduce-scatter: after step s, rank r owns the partial sum of chunk
	// (r - s) mod p accumulated over s+1 ranks.
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank - s + p) % p
		recvChunk := (c.rank - s - 1 + p*2) % p
		c.Send(next, tagRingRS+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingRS+s)
		lo := bounds[recvChunk]
		for i := range in {
			acc[lo+i] += in[i]
		}
	}
	// Allgather: circulate the fully reduced chunks.
	for s := 0; s < p-1; s++ {
		sendChunk := (c.rank + 1 - s + p*2) % p
		recvChunk := (c.rank - s + p*2) % p
		c.Send(next, tagRingAG+s, acc[bounds[sendChunk]:bounds[sendChunk+1]])
		in := c.Recv(prev, tagRingAG+s)
		copy(acc[bounds[recvChunk]:bounds[recvChunk+1]], in)
	}
	return acc
}

// Gather collects each rank's chunk on root (concatenated by rank). Other
// ranks return nil.
func (c *Comm) Gather(root int, chunk []float64) []float64 {
	if c.rank != root {
		c.Send(root, tagGather, chunk)
		return nil
	}
	p := c.world.size
	out := make([]float64, 0, len(chunk)*p)
	for r := 0; r < p; r++ {
		if r == c.rank {
			out = append(out, chunk...)
		} else {
			out = append(out, c.Recv(r, tagGather)...)
		}
	}
	return out
}
