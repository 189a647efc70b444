package serve

import "summitscale/internal/units"

// BatchConfig shapes the dynamic micro-batcher.
type BatchConfig struct {
	// MaxBatch closes a batch by size.
	MaxBatch int
	// MaxDelay closes a batch by deadline: no admitted request waits in
	// the open batch longer than this before dispatch is attempted.
	MaxDelay units.Seconds
}

// DefaultBatch is the standard micro-batching policy: up to 64 requests
// or 20 simulated milliseconds, whichever comes first.
func DefaultBatch() BatchConfig {
	return BatchConfig{MaxBatch: 64, MaxDelay: 20e-3}
}

// batcher accumulates admitted requests for one model and closes batches
// by size or deadline. It is a pure function of the admitted-request
// sequence on the simulated clock: batch membership and order depend only
// on (arrival order, MaxBatch, MaxDelay), never on worker scheduling —
// the property the cross-worker determinism suite pins.
type batcher struct {
	cfg     BatchConfig
	pending []Request
	// epoch guards deadline timers: closing a batch bumps it, so a timer
	// scheduled for an already-closed batch expires as a no-op.
	epoch int
}

// newBatcher builds a batcher whose open batch has room for capHint
// requests before it must grow.
func newBatcher(cfg BatchConfig, capHint int) *batcher {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxDelay < 0 {
		cfg.MaxDelay = 0
	}
	return &batcher{cfg: cfg, pending: make([]Request, 0, capHint)}
}

// add appends an admitted request to the open batch. It returns
// (closed, deadline): closed is the full batch when this arrival filled
// it (nil otherwise), and deadline is true when the caller must schedule
// a deadline timer for the batch this request just opened.
func (b *batcher) add(r Request) (closed []Request, deadline bool) {
	b.pending = append(b.pending, r)
	if len(b.pending) >= b.cfg.MaxBatch {
		return b.close(), false
	}
	return nil, len(b.pending) == 1
}

// close seals and returns the open batch (nil when empty). The sealed
// batch is capped at its length, and the next batch appends into the
// array after it, so batches never share elements.
func (b *batcher) close() []Request {
	n := len(b.pending)
	if n == 0 {
		return nil
	}
	batch := b.pending[:n:n]
	b.pending = b.pending[n:n]
	b.epoch++
	return batch
}

// expire handles a deadline timer for the given epoch: it closes the open
// batch only when no size-triggered close intervened since the timer was
// scheduled.
func (b *batcher) expire(epoch int) []Request {
	if epoch != b.epoch {
		return nil
	}
	return b.close()
}
