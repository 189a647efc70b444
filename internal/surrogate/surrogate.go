// Package surrogate implements the classical machine-learning methods the
// paper's projects use alongside deep learning (§III-C, §V): ridge /
// ordinary least squares regression with Bayesian-information-criterion
// model selection (the anti-overfitting device of Liu et al.'s alloy
// workflow), and random-forest regression (the binding-affinity scoring
// function of Glaser et al.).
package surrogate

import (
	"fmt"
	"math"
	"sort"

	"summitscale/internal/stats"
)

// Ridge is a linear model fit with L2 regularization.
type Ridge struct {
	Lambda  float64
	Weights []float64 // last entry is the intercept
}

// FitRidge solves (X'X + λI)w = X'y with an intercept column, via
// Gaussian elimination. Rows of x are samples.
func FitRidge(x [][]float64, y []float64, lambda float64) (*Ridge, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("surrogate: %d samples vs %d targets", n, len(y))
	}
	d := len(x[0]) + 1 // + intercept
	// Normal equations.
	a := make([][]float64, d)
	b := make([]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	row := make([]float64, d)
	for s := 0; s < n; s++ {
		copy(row, x[s])
		row[d-1] = 1
		for i := 0; i < d; i++ {
			b[i] += row[i] * y[s]
			for j := 0; j < d; j++ {
				a[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < d-1; i++ { // don't regularize the intercept
		a[i][i] += lambda
	}
	w, err := solve(a, b)
	if err != nil {
		return nil, err
	}
	return &Ridge{Lambda: lambda, Weights: w}, nil
}

// Predict evaluates the model on one sample.
func (r *Ridge) Predict(x []float64) float64 {
	d := len(r.Weights)
	if len(x) != d-1 {
		panic(fmt.Sprintf("surrogate: %d features for %d weights", len(x), d-1))
	}
	out := r.Weights[d-1]
	for i, v := range x {
		out += r.Weights[i] * v
	}
	return out
}

// solve performs Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("surrogate: singular system at column %d", col)
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = m[i][n] / m[i][i]
	}
	return out, nil
}

// MSE returns the model's mean squared error on a dataset.
func (r *Ridge) MSE(x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := r.Predict(x[i]) - y[i]
		s += d * d
	}
	return s / float64(len(x))
}

// BIC returns the Bayesian information criterion of a fit: n·ln(MSE) +
// k·ln(n). Lower is better; the k·ln(n) term penalizes complexity, the
// device Liu et al. use "to avoid overfitting while still extracting the
// maximal information".
func BIC(mse float64, nSamples, nParams int) float64 {
	if mse <= 0 {
		mse = 1e-300
	}
	return float64(nSamples)*math.Log(mse) + float64(nParams)*math.Log(float64(nSamples))
}

// SelectByBIC fits ridge models on nested feature prefixes (1..d features)
// and returns the model with the lowest BIC and its feature count.
func SelectByBIC(x [][]float64, y []float64, lambda float64) (*Ridge, int, error) {
	if len(x) == 0 {
		return nil, 0, fmt.Errorf("surrogate: empty dataset")
	}
	d := len(x[0])
	bestBIC := math.Inf(1)
	var best *Ridge
	bestK := 0
	for k := 1; k <= d; k++ {
		sub := make([][]float64, len(x))
		for i := range x {
			sub[i] = x[i][:k]
		}
		m, err := FitRidge(sub, y, lambda)
		if err != nil {
			continue
		}
		bic := BIC(m.MSE(sub, y), len(x), k+1)
		if bic < bestBIC {
			bestBIC, best, bestK = bic, m, k
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("surrogate: no model could be fit")
	}
	return best, bestK, nil
}

// treeNode is one node of a regression tree as FitForest grows it. A
// fitted forest keeps only the flat layout built from these.
type treeNode struct {
	feature int
	thresh  float64
	value   float64
	lo, hi  *treeNode
}

// split is one internal node of the flat layout: x[feature] <= thresh
// goes to the left child.
type split struct {
	thresh  float64
	feature int
}

// RandomForest is a bagged ensemble of depth-limited regression trees —
// Glaser et al.'s scoring-function family.
//
// The trees are stored flat, as complete binary trees of one common depth
// indexed like a heap: tree t's internal nodes are splits[t*(2^depth-1):]
// and its leaves are leaves[t<<depth:]. A leaf the fit placed above that
// depth is pushed down: its slot becomes a split whose two subtrees carry
// the same value, so every walk takes exactly depth steps over contiguous
// memory and lands on the value the pointer tree would return. The layout
// holds 2^(depth+1)-1 slots per tree, which suits the shallow forests
// FitForest is used for.
type RandomForest struct {
	MaxDepth int
	MinLeaf  int

	nTrees int
	depth  int
	splits []split
	leaves []float64
}

// FitForest trains nTrees trees on bootstrap resamples with random feature
// subsetting at each split.
func FitForest(rng *stats.RNG, x [][]float64, y []float64, nTrees, maxDepth, minLeaf int) *RandomForest {
	f := layoutForest(growTrees(rng, x, y, nTrees, maxDepth, minLeaf))
	f.MaxDepth, f.MinLeaf = maxDepth, minLeaf
	return f
}

// growTrees fits the ensemble's pointer trees.
func growTrees(rng *stats.RNG, x [][]float64, y []float64, nTrees, maxDepth, minLeaf int) []*treeNode {
	if len(x) == 0 || len(x) != len(y) {
		panic("surrogate: bad forest dataset")
	}
	nFeat := len(x[0])
	mtry := int(math.Max(1, math.Sqrt(float64(nFeat))))
	trees := make([]*treeNode, nTrees)
	for t := range trees {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		trees[t] = buildTree(rng, x, y, idx, maxDepth, minLeaf, mtry)
	}
	return trees
}

// layoutForest flattens pointer trees into the complete-tree layout.
func layoutForest(trees []*treeNode) *RandomForest {
	depth := 0
	for _, t := range trees {
		if d := t.height(); d > depth {
			depth = d
		}
	}
	inner, width := 1<<depth-1, 1<<depth
	f := &RandomForest{
		nTrees: len(trees),
		depth:  depth,
		splits: make([]split, len(trees)*inner),
		leaves: make([]float64, len(trees)*width),
	}
	for t, root := range trees {
		f.place(root, f.splits[t*inner:(t+1)*inner], f.leaves[t*width:(t+1)*width], 0, 0)
	}
	return f
}

// place writes node n into heap slot i at the given level of one tree.
// Leaves above the bottom level fill every slot beneath them.
func (f *RandomForest) place(n *treeNode, splits []split, leaves []float64, i, level int) {
	if level == f.depth {
		leaves[i-len(splits)] = n.value
		return
	}
	lo, hi := n, n
	if n.feature >= 0 {
		splits[i] = split{thresh: n.thresh, feature: n.feature}
		lo, hi = n.lo, n.hi
	}
	f.place(lo, splits, leaves, 2*i+1, level+1)
	f.place(hi, splits, leaves, 2*i+2, level+1)
}

// height is the number of splits on the tree's longest root-to-leaf path.
func (n *treeNode) height() int {
	if n.feature < 0 {
		return 0
	}
	return 1 + max(n.lo.height(), n.hi.height())
}

func buildTree(rng *stats.RNG, x [][]float64, y []float64, idx []int, depth, minLeaf, mtry int) *treeNode {
	mean := 0.0
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	node := &treeNode{feature: -1, value: mean}
	if depth <= 0 || len(idx) < 2*minLeaf {
		return node
	}
	bestSSE := math.Inf(1)
	bestFeat, bestThresh := -1, 0.0
	nFeat := len(x[0])
	for t := 0; t < mtry; t++ {
		feat := rng.Intn(nFeat)
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = x[i][feat]
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.25, 0.5, 0.75} {
			thresh := vals[int(q*float64(len(vals)-1))]
			sse, ok := splitSSE(x, y, idx, feat, thresh, minLeaf)
			if ok && sse < bestSSE {
				bestSSE, bestFeat, bestThresh = sse, feat, thresh
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	var loIdx, hiIdx []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			loIdx = append(loIdx, i)
		} else {
			hiIdx = append(hiIdx, i)
		}
	}
	node.feature = bestFeat
	node.thresh = bestThresh
	node.lo = buildTree(rng, x, y, loIdx, depth-1, minLeaf, mtry)
	node.hi = buildTree(rng, x, y, hiIdx, depth-1, minLeaf, mtry)
	return node
}

func splitSSE(x [][]float64, y []float64, idx []int, feat int, thresh float64, minLeaf int) (float64, bool) {
	var nLo, nHi int
	var sLo, sHi float64
	for _, i := range idx {
		if x[i][feat] <= thresh {
			nLo++
			sLo += y[i]
		} else {
			nHi++
			sHi += y[i]
		}
	}
	if nLo < minLeaf || nHi < minLeaf {
		return 0, false
	}
	mLo, mHi := sLo/float64(nLo), sHi/float64(nHi)
	var sse float64
	for _, i := range idx {
		var d float64
		if x[i][feat] <= thresh {
			d = y[i] - mLo
		} else {
			d = y[i] - mHi
		}
		sse += d * d
	}
	return sse, true
}

// NumTrees is the ensemble size.
func (f *RandomForest) NumTrees() int { return f.nTrees }

// Predict averages the ensemble, summing the trees in fit order.
func (f *RandomForest) Predict(x []float64) float64 {
	var s float64
	for t := range f.nTrees {
		s += f.walk(t, x)
	}
	return s / float64(f.nTrees)
}

// PredictRows sets out[i] = Predict(rows[i]), bit for bit: each row
// still sums the trees in fit order. Rows go four at a time through each
// tree, so four independent walks share the tree's cache lines and
// overlap in the pipeline; a walk alone is one chain of dependent loads.
func (f *RandomForest) PredictRows(rows [][]float64, out []float64) {
	inner, nt := 1<<f.depth-1, float64(f.nTrees)
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		x0, x1, x2, x3 := rows[i], rows[i+1], rows[i+2], rows[i+3]
		var s0, s1, s2, s3 float64
		for t := range f.nTrees {
			splits := f.splits[t*inner : (t+1)*inner]
			j0, j1, j2, j3 := 0, 0, 0, 0
			for range f.depth {
				j0 = descend(&splits[j0], j0, x0)
				j1 = descend(&splits[j1], j1, x1)
				j2 = descend(&splits[j2], j2, x2)
				j3 = descend(&splits[j3], j3, x3)
			}
			leaves := f.leaves[t<<f.depth : (t+1)<<f.depth]
			s0 += leaves[j0-inner]
			s1 += leaves[j1-inner]
			s2 += leaves[j2-inner]
			s3 += leaves[j3-inner]
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0/nt, s1/nt, s2/nt, s3/nt
	}
	for ; i < len(rows); i++ {
		out[i] = f.Predict(rows[i])
	}
}

// descend takes one step from heap slot i at split n.
func descend(n *split, i int, x []float64) int {
	right := 0
	if !(x[n.feature] <= n.thresh) {
		right = 1
	}
	return 2*i + 1 + right
}

// walk descends tree t for x and returns the leaf value. Every walk takes
// exactly depth steps, and the branch choice is computed, not branched
// on, so a walk never mispredicts.
func (f *RandomForest) walk(t int, x []float64) float64 {
	inner := 1<<f.depth - 1
	splits := f.splits[t*inner : (t+1)*inner]
	i := 0
	for range f.depth {
		i = descend(&splits[i], i, x)
	}
	return f.leaves[t<<f.depth+i-inner]
}

// MSE returns the forest's mean squared error on a dataset.
func (f *RandomForest) MSE(x [][]float64, y []float64) float64 {
	var s float64
	for i := range x {
		d := f.Predict(x[i]) - y[i]
		s += d * d
	}
	return s / float64(len(x))
}
