package serve

import (
	"math"
	"testing"

	"summitscale/internal/parallel"
	"summitscale/internal/stats"
)

// oracleForwardRow is the one-output-at-a-time MLP forward the four-wide
// kernel replaced: each output sums its bias and products in input order,
// then ReLU clamps hidden layers.
func oracleForwardRow(m *MLPModel, row []float64) float64 {
	cur := append([]float64(nil), row...)
	for _, l := range m.layers {
		nxt := make([]float64, l.out)
		for o := range nxt {
			s := l.b[o]
			w := l.w[o*l.in : (o+1)*l.in]
			for i, v := range cur {
				s += w[i] * v
			}
			if l.relu && s < 0 {
				s = 0
			}
			nxt[o] = s
		}
		cur = nxt
	}
	return cur[0]
}

func TestMLPKernelMatchesOneOutputOracle(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	rng := stats.NewRNG(21)
	pool := parallel.NewWorkerPool(3)
	defer pool.Close()
	for _, widths := range [][]int{{1}, {3, 5}, {5, 7, 3}, {8, 32, 16}, {6, 13, 9, 2}, {9, 70, 11}} {
		m := NewMLPModel("mlp", rng.Uint64(), widths)
		rows := make([][]float64, 37) // not a multiple of batchGrain
		for i := range rows {
			rows[i] = make([]float64, widths[0])
			for j := range rows[i] {
				rows[i][j] = 3 * rng.NormFloat64()
				if i%5 == 4 && j == i%widths[0] {
					rows[i][j] = specials[(i/5)%len(specials)]
				}
			}
		}
		out := make([]float64, len(rows))
		m.PredictBatch(pool, 0, rows, out)
		for i, row := range rows {
			if want := oracleForwardRow(m, row); math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("widths %v row %d: kernel %v, oracle %v", widths, i, out[i], want)
			}
		}
	}
}

// TestMLPKernelKeepsNegativeZero pins the ReLU test itself: a hidden
// pre-activation of -0 is not below zero, so it passes through as -0 and
// the output keeps its sign bit. Clamping with s <= 0 would turn it +0.
func TestMLPKernelKeepsNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	hidden := denseLayer{in: 2, out: 5, relu: true, w: make([]float64, 10), b: make([]float64, 5)}
	for i := range hidden.w {
		hidden.w[i] = -1 - float64(i) // -w · +0 = -0
	}
	for i := range hidden.b {
		hidden.b[i] = negZero
	}
	output := denseLayer{in: 5, out: 1, w: []float64{1, 2, 3, 4, 5}, b: []float64{negZero}}
	m := &MLPModel{name: "signs", layers: []denseLayer{hidden, output}, in: 2, widest: 5}
	rows := [][]float64{{0, 0}, {1, 0}, {0, math.NaN()}, {math.Inf(-1), 2}}
	out := make([]float64, len(rows))
	m.PredictBatch(parallel.Shared(), 1, rows, out)
	for i, row := range rows {
		if want := oracleForwardRow(m, row); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("row %v: kernel %v, oracle %v", row, out[i], want)
		}
	}
	if !math.Signbit(out[0]) {
		t.Fatalf("zero row predicts %v, want -0", out[0])
	}
}

func TestMLPRejectsWrongWidthRow(t *testing.T) {
	m := NewMLPModel("mlp", 1, []int{4, 8})
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-feature row reached a 4-input MLP without a panic")
		}
	}()
	m.PredictBatch(parallel.Shared(), 1, [][]float64{{1, 2, 3}}, make([]float64, 1))
}
