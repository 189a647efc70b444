package surrogate

import (
	"math"
	"testing"

	"summitscale/internal/stats"
)

// predict is the pointer-tree walk FitForest's flat layout replaced: the
// oracle the layout must match bit for bit.
func (n *treeNode) predict(x []float64) float64 {
	for n.feature >= 0 {
		if x[n.feature] <= n.thresh {
			n = n.lo
		} else {
			n = n.hi
		}
	}
	return n.value
}

// oraclePredict averages the pointer trees in order, as Predict did.
func oraclePredict(trees []*treeNode, x []float64) float64 {
	var s float64
	for _, t := range trees {
		s += t.predict(x)
	}
	return s / float64(len(trees))
}

// randomTree grows an unbalanced tree: each node below maxDepth splits
// with probability 0.6, so leaves sit at every level.
func randomTree(rng *stats.RNG, depth, nFeat int, specials []float64) *treeNode {
	if depth == 0 || rng.Float64() < 0.4 {
		return &treeNode{feature: -1, value: rng.NormFloat64()}
	}
	thresh := rng.NormFloat64()
	if rng.Float64() < 0.2 {
		thresh = specials[rng.Intn(len(specials))]
	}
	return &treeNode{
		feature: rng.Intn(nFeat),
		thresh:  thresh,
		lo:      randomTree(rng, depth-1, nFeat, specials),
		hi:      randomTree(rng, depth-1, nFeat, specials),
	}
}

func TestForestLayoutMatchesPointerWalk(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	rng := stats.NewRNG(11)
	const nFeat = 5
	for trial := 0; trial < 400; trial++ {
		maxDepth := 1 + trial%8
		trees := make([]*treeNode, 1+rng.Intn(12))
		for i := range trees {
			trees[i] = randomTree(rng, maxDepth, nFeat, specials)
		}
		f := layoutForest(trees)
		rows := make([][]float64, 1+rng.Intn(11)) // blocks of four and a tail
		for k := range rows {
			x := make([]float64, nFeat)
			for j := range x {
				x[j] = rng.NormFloat64()
				if rng.Float64() < 0.3 {
					x[j] = specials[rng.Intn(len(specials))]
				}
			}
			rows[k] = x
		}
		batch := make([]float64, len(rows))
		f.PredictRows(rows, batch)
		for k, x := range rows {
			want := oraclePredict(trees, x)
			for _, got := range []float64{f.Predict(x), batch[k]} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d (depth %d, %d trees) row %d x=%v: layout %v, pointer walk %v",
						trial, maxDepth, len(trees), k, x, got, want)
				}
			}
		}
	}
}

func TestForestLayoutSingleLeaf(t *testing.T) {
	f := layoutForest([]*treeNode{{feature: -1, value: 2}, {feature: -1, value: 4}})
	if got := f.Predict([]float64{math.NaN()}); got != 3 {
		t.Fatalf("two stump leaves predict %v, want 3", got)
	}
}

func TestFitForestMatchesPointerWalk(t *testing.T) {
	rng := stats.NewRNG(3)
	x, y := linearData(rng, 200, 0.3)
	f := FitForest(stats.NewRNG(9), x, y, 20, 7, 2)

	trees := growTrees(stats.NewRNG(9), x, y, 20, 7, 2) // the same trees, for the oracle
	batch := make([]float64, len(x))
	f.PredictRows(x, batch)
	for i, row := range x {
		want := oraclePredict(trees, row)
		if got := f.Predict(row); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: FitForest predicts %v, pointer walk %v", i, got, want)
		}
		if math.Float64bits(batch[i]) != math.Float64bits(want) {
			t.Fatalf("row %d: PredictRows gives %v, pointer walk %v", i, batch[i], want)
		}
	}
}
