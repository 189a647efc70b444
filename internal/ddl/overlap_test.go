package ddl

import (
	"sync"
	"testing"

	"summitscale/internal/autograd"
	"summitscale/internal/mp"
	"summitscale/internal/optim"
)

// trainParams runs a short data-parallel training job under cfg and returns
// every rank's flattened parameters.
func trainParams(t *testing.T, p, steps int, cfg Config) [][]float64 {
	t.Helper()
	x, labels := globalBatch()
	w := mp.NewWorld(p)
	out := make([][]float64, p)
	w.Run(func(c *mp.Comm) {
		m := buildModel()
		r := NewRank(c, m, optim.NewMomentumSGD(0.1, 0.9), cfg)
		per := x.Dim(0) / p
		lo := c.Rank() * per
		for s := 0; s < steps; s++ {
			r.Step(func(micro int) *autograd.Value {
				a := lo + micro*per/r.Config.AccumSteps
				b := lo + (micro+1)*per/r.Config.AccumSteps
				return autograd.SoftmaxCrossEntropy(
					m.Forward(autograd.Constant(x.Slice2DRows(a, b))), labels[a:b])
			})
		}
		// Retire the in-flight collective before touching the Comm again.
		r.Flush()
		if !ReplicasConsistent(c, m, 0) {
			t.Error("replicas diverged")
		}
		out[c.Rank()] = FlattenParams(m.Params())
	})
	return out
}

// TestOverlapBitIdenticalToSyncGradLag pins the overlap contract: launching
// the lagged allreduce asynchronously and retiring it behind the next
// backward pass must change nothing — same reduction arithmetic, same
// application schedule, byte-identical parameters.
func TestOverlapBitIdenticalToSyncGradLag(t *testing.T) {
	cases := []struct {
		name string
		base Config
	}{
		{"ring", Config{GradLag: true}},
		{"hierarchical", Config{GradLag: true, Allreduce: func(c *mp.Comm, g []float64) []float64 {
			return c.AllReduceHierarchical(g, 2)
		}}},
		{"fp16-accum", Config{GradLag: true, Compression: FP16, AccumSteps: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sync := trainParams(t, 4, 6, tc.base)
			ov := tc.base
			ov.Overlap = true
			overlap := trainParams(t, 4, 6, ov)
			for rk := range sync {
				for i := range sync[rk] {
					if sync[rk][i] != overlap[rk][i] {
						t.Fatalf("rank %d param %d: sync %v vs overlap %v",
							rk, i, sync[rk][i], overlap[rk][i])
					}
				}
			}
		})
	}
}

// TestOverlapPipelinesCollective: with Overlap the allreduce launched at
// step k must still be in flight when Step returns — i.e. the rank really
// does hand the collective to a helper instead of blocking on it.
func TestOverlapPipelinesCollective(t *testing.T) {
	x, labels := globalBatch()
	// A gate allreduce that cannot complete until the test releases it: if
	// Step blocked on the collective, the first Step would deadlock.
	release := make(chan struct{})
	var gateOnce sync.Once
	gated := func(c *mp.Comm, g []float64) []float64 {
		gateOnce.Do(func() { <-release })
		return c.AllReduceRing(g)
	}
	w := mp.NewWorld(1)
	w.Run(func(c *mp.Comm) {
		m := buildModel()
		r := NewRank(c, m, optim.NewSGD(0.1), Config{GradLag: true, Overlap: true, Allreduce: gated})
		r.Step(func(int) *autograd.Value {
			return autograd.SoftmaxCrossEntropy(m.Forward(autograd.Constant(x)), labels)
		})
		// Step returned with the gated collective still blocked: overlap is
		// real. Release it and retire it.
		close(release)
		r.Flush()
	})
}

// TestOverlapRequiresGradLag: overlap without the one-step lag has no
// compute window to hide the collective in and must be rejected up front.
func TestOverlapRequiresGradLag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w := mp.NewWorld(1)
	w.Run(func(c *mp.Comm) {
		NewRank(c, buildModel(), optim.NewSGD(0.1), Config{Overlap: true})
	})
}

// TestFlushIdempotent: Flush with nothing pending (including repeated
// calls) is a no-op.
func TestFlushIdempotent(t *testing.T) {
	w := mp.NewWorld(1)
	w.Run(func(c *mp.Comm) {
		r := NewRank(c, buildModel(), optim.NewSGD(0.1), Config{})
		r.Flush()
		r.Flush()
	})
}

// TestHierarchicalAllreduceConfigMatchesRing: the hierarchical collective
// plugged through Config must train to the same parameters as the ring
// within floating-point reassociation tolerance (summation order differs).
func TestHierarchicalAllreduceConfigMatchesRing(t *testing.T) {
	ring := trainParams(t, 4, 4, Config{})
	hier := trainParams(t, 4, 4, Config{Allreduce: func(c *mp.Comm, g []float64) []float64 {
		return c.AllReduceHierarchical(g, 2)
	}})
	for rk := range ring {
		for i := range ring[rk] {
			d := ring[rk][i] - hier[rk][i]
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("rank %d param %d: ring %v vs hierarchical %v",
					rk, i, ring[rk][i], hier[rk][i])
			}
		}
	}
}
