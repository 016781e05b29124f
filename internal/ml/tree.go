package ml

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// DecisionTree is a CART classification tree with Gini impurity. The
// paper's DT baseline uses a maximum of 5 splits; MaxSplits = 0 means
// unbounded.
type DecisionTree struct {
	MaxSplits int
	MaxDepth  int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// FeatureSubset > 0 restricts each split to a random subset of
	// that many features (used by RandomForest); Seed drives the
	// subset draw.
	FeatureSubset int
	Seed          uint64

	root     *treeNode
	nClasses int
}

var _ Classifier = (*DecisionTree)(nil)

type treeNode struct {
	feature  int
	thresh   float64
	left     *treeNode
	right    *treeNode
	class    int
	prob     float64 // fraction of class-1 samples at this node
	leafSize int
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// NewDecisionTree returns a tree limited to the paper's 5 splits.
func NewDecisionTree() *DecisionTree {
	return &DecisionTree{MaxSplits: 5, MinLeaf: 1, Seed: 1}
}

// Fit implements Classifier.
func (t *DecisionTree) Fit(x [][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: tree: invalid training set (n=%d, labels=%d)", len(x), len(y))
	}
	t.nClasses = 0
	for _, l := range y {
		if l < 0 {
			return fmt.Errorf("ml: tree: negative label %d", l)
		}
		if l+1 > t.nClasses {
			t.nClasses = l + 1
		}
	}
	if t.MinLeaf < 1 {
		t.MinLeaf = 1
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewPCG(t.Seed, 0x9e3779b9))
	splits := 0
	t.root = t.grow(x, y, idx, 0, &splits, rng)
	return nil
}

func (t *DecisionTree) grow(x [][]float64, y []int, idx []int, depth int, splits *int, rng *rand.Rand) *treeNode {
	node := &treeNode{leafSize: len(idx)}
	counts := make([]int, t.nClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	node.class = best
	if t.nClasses > 1 && len(idx) > 0 {
		node.prob = float64(counts[min(1, t.nClasses-1)]) / float64(len(idx))
	}

	pure := counts[best] == len(idx)
	depthCap := t.MaxDepth > 0 && depth >= t.MaxDepth
	splitCap := t.MaxSplits > 0 && *splits >= t.MaxSplits
	if pure || depthCap || splitCap || len(idx) < 2*t.MinLeaf {
		return node
	}

	feature, thresh, gain := t.bestSplit(x, y, idx, rng)
	if gain <= 0 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feature] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.MinLeaf || len(right) < t.MinLeaf {
		return node
	}
	*splits++
	node.feature = feature
	node.thresh = thresh
	node.left = t.grow(x, y, left, depth+1, splits, rng)
	node.right = t.grow(x, y, right, depth+1, splits, rng)
	return node
}

// bestSplit scans candidate features for the Gini-optimal threshold.
func (t *DecisionTree) bestSplit(x [][]float64, y []int, idx []int, rng *rand.Rand) (feature int, thresh, gain float64) {
	d := len(x[0])
	features := make([]int, d)
	for i := range features {
		features[i] = i
	}
	if t.FeatureSubset > 0 && t.FeatureSubset < d {
		rng.Shuffle(d, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.FeatureSubset]
	}

	parentGini := giniOf(y, idx, t.nClasses)
	bestGain := 0.0
	bestFeature, bestThresh := -1, 0.0

	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, len(idx))
	leftCounts := make([]int, t.nClasses)
	rightCounts := make([]int, t.nClasses)

	for _, f := range features {
		for k, i := range idx {
			vals[k] = fv{x[i][f], y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = 0
		}
		for _, v := range vals {
			rightCounts[v.y]++
		}
		nLeft := 0
		nRight := len(vals)
		for k := 0; k < len(vals)-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			nLeft++
			nRight--
			if vals[k].v == vals[k+1].v {
				continue
			}
			gl := giniFromCounts(leftCounts, nLeft)
			gr := giniFromCounts(rightCounts, nRight)
			w := float64(nLeft)/float64(len(vals))*gl + float64(nRight)/float64(len(vals))*gr
			if g := parentGini - w; g > bestGain {
				bestGain = g
				bestFeature = f
				bestThresh = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0
	}
	return bestFeature, bestThresh, bestGain
}

func giniOf(y []int, idx []int, k int) float64 {
	counts := make([]int, k)
	for _, i := range idx {
		counts[y[i]]++
	}
	return giniFromCounts(counts, len(idx))
}

func giniFromCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x []float64) int {
	node := t.root
	if node == nil {
		return 0
	}
	for !node.isLeaf() {
		if x[node.feature] <= node.thresh {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.class
}

// Score implements Scorer: the class-1 leaf fraction.
func (t *DecisionTree) Score(x []float64) float64 {
	node := t.root
	if node == nil {
		return 0
	}
	for !node.isLeaf() {
		if x[node.feature] <= node.thresh {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.prob
}
