package tensor

import (
	"testing"

	"summitscale/internal/stats"
)

// matmulNaive is the textbook ijk kernel: the independent oracle the
// packed and row-stream property tests compare against.
func matmulNaive(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for kk := 0; kk < k; kk++ {
				acc += a[i*k+kk] * b[kk*n+j]
			}
			dst[i*n+j] = acc
		}
	}
}

// BenchmarkGemmRowStream256 is the serial row-streamed kernel, the floor
// rule's baseline for BenchmarkGemmParallel256.
func BenchmarkGemmRowStream256(b *testing.B) {
	const sz = 256
	rng := stats.NewRNG(1)
	a := Randn(rng, 1, sz, sz)
	bb := Randn(rng, 1, sz, sz)
	dst := New(sz, sz)
	b.SetBytes(int64(2 * sz * sz * sz * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		matmulRows(dst.Data(), a.Data(), bb.Data(), 0, sz, sz, sz)
	}
}
