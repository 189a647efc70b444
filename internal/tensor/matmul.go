package tensor

import (
	"fmt"

	"summitscale/internal/parallel"
)

// MatMul's size-based dispatch table. The three kernels are bit-identical
// (same ascending-k accumulation per output element, same zero-skip), so
// the thresholds are pure performance tuning: sequential row-streaming
// until the fan-out pays for its dispatch, pool-parallel row-streaming
// while B still fits comfortably in cache, and the packed panel kernel
// (gemm_packed.go) once B is large enough that repacking it into
// contiguous micro-panels beats striding across its rows.
const (
	// matmulParallelThreshold is the m*n*k product above which MatMul
	// fans out across the persistent worker pool. Below it the
	// sequential kernel is faster.
	matmulParallelThreshold = 64 * 64 * 64
	// matmulPackedThreshold is the m*n*k product above which MatMul
	// packs B. Between the two thresholds the unpacked row-stream kernel
	// wins: the packing pass is pure overhead while B is cache-resident.
	matmulPackedThreshold = 128 * 128 * 128
	// matmulRowGrain is the row-chunk size for the pool-parallel
	// row-stream path; results do not depend on it (rows are
	// independent).
	matmulRowGrain = 8
)

// MatMul returns the matrix product of the (M, K) tensor t and the (K, N)
// tensor u. The kernel is cache-blocked over k and parallelized over row
// bands for large problems.
func (t *Tensor) MatMul(u *Tensor) *Tensor {
	if t.Rank() != 2 || u.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul of rank %d and %d", t.Rank(), u.Rank()))
	}
	m, k := t.shape[0], t.shape[1]
	k2, n := u.shape[0], u.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", k, k2))
	}
	r := newIn(t.arena, []int{m, n})
	matMulInto(r, t, u)
	return r
}

// matMulInto computes the product of t and u into the zero-filled r,
// dispatching through the size table above. It lets callers that manage
// their own result storage (convolution's arena-allocated product) share
// one multiply implementation; every path produces bit-identical output.
func matMulInto(r, t, u *Tensor) {
	m, k := t.shape[0], t.shape[1]
	n := u.shape[1]
	work := m * n * k
	switch {
	case work < matmulParallelThreshold:
		matmulRows(r.data, t.data, u.data, 0, m, k, n)
	case work < matmulPackedThreshold:
		matMulRowsParallel(r.data, t.data, u.data, m, k, n)
	default:
		matMulPackedInto(r.data, t.data, u.data, m, k, n)
	}
}

// matMulRowsParallel fans the row-stream kernel out over the persistent
// worker pool in independent row chunks — no per-call goroutine spawn,
// bit-identical to the sequential kernel at any pool width.
func matMulRowsParallel(dst, a, b []float64, m, k, n int) {
	parallel.Shared().RunRange(m, matmulRowGrain, func(lo, hi int) {
		matmulRows(dst, a, b, lo, hi, k, n)
	})
}

// matmulRows computes rows [lo, hi) of the (m, n) product using an ikj loop
// order, which streams through the b matrix row-wise and keeps the inner
// loop vectorizable.
func matmulRows(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		arow := a[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

// Transpose2D returns the transpose of a rank-2 tensor.
func (t *Tensor) Transpose2D() *Tensor { return t.Transpose2DIn(t.arena) }

// Transpose2DIn is Transpose2D allocating the result from arena a, so a
// backward pass can transpose a heap parameter into step-scoped storage.
func (t *Tensor) Transpose2DIn(a *Arena) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose2D of non-matrix")
	}
	m, n := t.shape[0], t.shape[1]
	r := newIn(a, []int{n, m})
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			r.data[j*m+i] = t.data[i*n+j]
		}
	}
	return r
}
