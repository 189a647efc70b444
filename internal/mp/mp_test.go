package mp

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"summitscale/internal/stats"
)

// seqSum is the reference reduction: elementwise sum of per-rank vectors.
func seqSum(vectors [][]float64) []float64 {
	out := make([]float64, len(vectors[0]))
	for _, v := range vectors {
		for i, x := range v {
			out[i] += x
		}
	}
	return out
}

func rankVectors(seed uint64, p, n int) [][]float64 {
	rng := stats.NewRNG(seed)
	vs := make([][]float64, p)
	for r := range vs {
		vs[r] = make([]float64, n)
		for i := range vs[r] {
			vs[r][i] = rng.NormFloat64()
		}
	}
	return vs
}

func almostEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if !almostEqual(got, []float64{1, 2, 3}, 0) {
				t.Errorf("Recv = %v", got)
			}
		}
	})
}

func TestRecvBuffersOutOfOrderTags(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			// Receive in reverse tag order.
			if got := c.Recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 payload = %v", got)
			}
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 payload = %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = 7 // mutation after send must not be visible
			c.Send(1, 1, nil)
		} else {
			c.Recv(0, 1) // the mutation has happened
			got := c.Recv(0, 0)
			if got[0] != 42 {
				t.Errorf("payload mutated in flight: %v", got)
			}
		}
	})
}

func TestBcastAllRoots(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 13} {
		for root := 0; root < p; root++ {
			w := NewWorld(p)
			payload := []float64{3.5, -1, float64(root)}
			w.Run(func(c *Comm) {
				var in []float64
				if c.Rank() == root {
					in = payload
				}
				got := c.Bcast(root, in)
				if !almostEqual(got, payload, 0) {
					t.Errorf("p=%d root=%d rank=%d: Bcast = %v", p, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestAllReduceMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, n := range []int{1, 3, 16, 100, 257} {
			vs := rankVectors(uint64(p*1000+n), p, n)
			want := seqSum(vs)
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				if got := c.AllReduceRing(vs[c.Rank()]); !almostEqual(got, want, 1e-9) {
					t.Errorf("p=%d n=%d: allreduce wrong on rank %d", p, n, c.Rank())
				}
			})
		}
	}
}

// TestAllReduceProperty is the core property-based check: for arbitrary
// seeds, rank counts, and lengths, the ring allreduce agrees with the
// sequential reduction.
func TestAllReduceProperty(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		rng := stats.NewRNG(uint64(seed))
		p := rng.Intn(9) + 1
		n := rng.Intn(64) + 1
		vs := rankVectors(uint64(seed)+99, p, n)
		want := seqSum(vs)
		ok := true
		var mu sync.Mutex
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			got := c.AllReduceRing(vs[c.Rank()])
			if !almostEqual(got, want, 1e-8) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveCollectivesDoNotInterfere(t *testing.T) {
	p := 5
	vs1 := rankVectors(1, p, 20)
	vs2 := rankVectors(2, p, 20)
	want1, want2 := seqSum(vs1), seqSum(vs2)
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		got1 := c.AllReduceRing(vs1[c.Rank()])
		got2 := c.AllReduceRing(vs2[c.Rank()])
		got3 := c.Bcast(0, got1)
		if !almostEqual(got1, want1, 1e-9) || !almostEqual(got2, want2, 1e-9) || !almostEqual(got3, want1, 1e-9) {
			t.Errorf("rank %d: back-to-back collectives interfered", c.Rank())
		}
	})
}

func TestGather(t *testing.T) {
	p := 4
	w := NewWorld(p)
	w.Run(func(c *Comm) {
		chunk := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
		got := c.Gather(2, chunk)
		if c.Rank() == 2 {
			want := []float64{0, 0, 1, 10, 2, 20, 3, 30}
			if !almostEqual(got, want, 0) {
				t.Errorf("Gather = %v", got)
			}
		} else if got != nil {
			t.Error("non-root Gather returned data")
		}

	})
}

// TestRingBandwidthOptimality checks the byte-count claim behind the
// paper's §VI-B analysis: the ring allreduce moves 2(P-1)/P · N values per
// rank in 2(P-1) messages of N/P values each.
func TestRingBandwidthOptimality(t *testing.T) {
	p, n := 8, 8000
	vs := rankVectors(3, p, n)
	w := NewWorld(p)
	w.Run(func(c *Comm) { c.AllReduceRing(vs[c.Rank()]) })
	if got, want := w.BytesSent(), int64(2*(p-1)*n*8); got != want {
		t.Errorf("ring bytes = %d, want %d", got, want)
	}
	if got, want := w.MessagesSent(), int64(2*(p-1)*p); got != want {
		t.Errorf("ring messages = %d, want %d", got, want)
	}
}

func TestTrafficCounters(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
		} else {
			c.Recv(0, 0)
		}
	})
	if w.BytesSent() != 80 || w.MessagesSent() != 1 {
		t.Fatalf("counters: %d bytes, %d msgs", w.BytesSent(), w.MessagesSent())
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run swallowed a rank panic")
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestSelfSendPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("self send did not panic")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(0, 0, nil)
		}
	})
}

func BenchmarkAllReduceRing8x65536(b *testing.B) {
	p, n := 8, 65536
	vs := rankVectors(1, p, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWorld(p)
		w.Run(func(c *Comm) { c.AllReduceRing(vs[c.Rank()]) })
	}
}

func TestLinksAllocatedLazily(t *testing.T) {
	// A freshly built world — even a large one — materializes no channels.
	w := NewWorld(1024)
	if n := w.AllocatedLinks(); n != 0 {
		t.Fatalf("fresh world allocated %d links, want 0", n)
	}

	// A ring allreduce touches exactly the P next-neighbour links.
	p := 4
	w = NewWorld(p)
	vs := rankVectors(1, p, 32)
	w.Run(func(c *Comm) { c.AllReduceRing(vs[c.Rank()]) })
	if n := w.AllocatedLinks(); n != int64(p) {
		t.Fatalf("ring allreduce on %d ranks allocated %d links, want %d", p, n, p)
	}

	// Re-running the collective reuses the existing channels.
	w.Run(func(c *Comm) { c.AllReduceRing(vs[c.Rank()]) })
	if n := w.AllocatedLinks(); n != int64(p) {
		t.Fatalf("second allreduce grew links to %d, want still %d", n, p)
	}
}
