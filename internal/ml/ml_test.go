package ml

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// blobs2D generates two Gaussian clusters: class 0 around (-2,-2),
// class 1 around (2,2).
func blobs2D(nPerClass int, spread float64, seed uint64) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, 1))
	var x [][]float64
	var y []int
	for i := 0; i < nPerClass; i++ {
		x = append(x, []float64{-2 + spread*rng.NormFloat64(), -2 + spread*rng.NormFloat64()})
		y = append(y, 0)
		x = append(x, []float64{2 + spread*rng.NormFloat64(), 2 + spread*rng.NormFloat64()})
		y = append(y, 1)
	}
	return x, y
}

// xorData generates the XOR pattern: only non-linear models solve it.
func xorData(nPerQuadrant int, seed uint64) ([][]float64, []int) {
	rng := rand.New(rand.NewPCG(seed, 2))
	var x [][]float64
	var y []int
	for i := 0; i < nPerQuadrant; i++ {
		for _, q := range [][3]float64{{1, 1, 0}, {-1, -1, 0}, {1, -1, 1}, {-1, 1, 1}} {
			x = append(x, []float64{q[0] + 0.3*rng.NormFloat64(), q[1] + 0.3*rng.NormFloat64()})
			y = append(y, int(q[2]))
		}
	}
	return x, y
}

func accuracyOf(t *testing.T, clf Classifier, x [][]float64, y []int) float64 {
	t.Helper()
	preds := make([]int, len(x))
	for i := range x {
		preds[i] = clf.Predict(x[i])
	}
	m, err := EvaluateBinary(y, preds)
	if err != nil {
		t.Fatal(err)
	}
	return m.Accuracy()
}

func TestStandardizer(t *testing.T) {
	x := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	var s Standardizer
	if err := s.Fit(x); err != nil {
		t.Fatal(err)
	}
	out := s.TransformAll(x)
	for j := 0; j < 2; j++ {
		var mean, varsum float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			varsum += d * d
		}
		if math.Abs(mean) > 1e-12 || math.Abs(varsum/3-1) > 1e-12 {
			t.Errorf("feature %d not standardized: mean=%g var=%g", j, mean, varsum/3)
		}
	}
}

func TestStandardizerConstantFeature(t *testing.T) {
	var s Standardizer
	if err := s.Fit([][]float64{{7, 1}, {7, 2}}); err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{7, 1.5})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Error("constant feature produced NaN/Inf")
	}
}

func TestStandardizerErrors(t *testing.T) {
	var s Standardizer
	if err := s.Fit(nil); err == nil {
		t.Error("expected error on empty fit")
	}
	if err := s.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected error on ragged matrix")
	}
}

func TestSVMLinearlySeparable(t *testing.T) {
	x, y := blobs2D(40, 0.5, 3)
	svm := NewSVM(1, LinearKernel{})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := blobs2D(40, 0.5, 4)
	if acc := accuracyOf(t, svm, tx, ty); acc < 0.97 {
		t.Errorf("linear SVM accuracy %g on separable blobs", acc)
	}
	if n := len(svm.x); n == 0 || n >= len(x) {
		t.Errorf("support vector count %d implausible", n)
	}
}

func TestSVMRBFSolvesXOR(t *testing.T) {
	x, y := xorData(30, 5)
	svm := NewSVM(10, RBFKernel{Gamma: 1})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := xorData(30, 6)
	if acc := accuracyOf(t, svm, tx, ty); acc < 0.95 {
		t.Errorf("RBF SVM accuracy %g on XOR", acc)
	}
}

func TestSVMScoreSign(t *testing.T) {
	x, y := blobs2D(30, 0.4, 7)
	svm := NewSVM(1, RBFKernel{Gamma: 0.5})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if svm.Score([]float64{2, 2}) <= 0 {
		t.Error("positive-class score should be positive")
	}
	if svm.Score([]float64{-2, -2}) >= 0 {
		t.Error("negative-class score should be negative")
	}
}

func TestSVMPlattProbabilities(t *testing.T) {
	x, y := blobs2D(40, 0.6, 9)
	svm := NewSVM(1, RBFKernel{Gamma: 0.5})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pPos := svm.PredictProba([]float64{2, 2})
	pNeg := svm.PredictProba([]float64{-2, -2})
	pMid := svm.PredictProba([]float64{0, 0})
	if pPos < 0.85 {
		t.Errorf("deep positive probability %g", pPos)
	}
	if pNeg > 0.15 {
		t.Errorf("deep negative probability %g", pNeg)
	}
	if pMid < 0.1 || pMid > 0.9 {
		t.Errorf("boundary probability %g should be uncertain", pMid)
	}
}

func TestSVMFitErrors(t *testing.T) {
	svm := NewSVM(1, LinearKernel{})
	if err := svm.Fit(nil, nil); err == nil {
		t.Error("expected error on empty training set")
	}
	if err := svm.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("expected error on length mismatch")
	}
}

func TestKernelValues(t *testing.T) {
	if got := (LinearKernel{}).Eval([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Errorf("linear kernel = %g", got)
	}
	rbf := RBFKernel{Gamma: 0.5}
	if got := rbf.Eval([]float64{1, 1}, []float64{1, 1}); got != 1 {
		t.Errorf("RBF self-similarity = %g, want 1", got)
	}
	if got := rbf.Eval([]float64{0, 0}, []float64{2, 0}); math.Abs(got-math.Exp(-2)) > 1e-12 {
		t.Errorf("RBF = %g, want e^-2", got)
	}
}

func TestDecisionTreeBlobs(t *testing.T) {
	x, y := blobs2D(40, 0.5, 13)
	tree := NewDecisionTree()
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := blobs2D(40, 0.5, 14)
	if acc := accuracyOf(t, tree, tx, ty); acc < 0.95 {
		t.Errorf("tree accuracy %g", acc)
	}
}

func TestDecisionTreeMaxSplits(t *testing.T) {
	x, y := xorData(25, 15)
	stump := &DecisionTree{MaxSplits: 1, MinLeaf: 1, Seed: 1}
	if err := stump.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if r := stump.root; !r.isLeaf() && !(r.left.isLeaf() && r.right.isLeaf()) {
		t.Error("1-split tree is deeper than one split")
	}
	// XOR cannot be solved by one split.
	if acc := accuracyOf(t, stump, x, y); acc > 0.8 {
		t.Errorf("stump should fail XOR, got %g", acc)
	}
	full := &DecisionTree{MaxSplits: 0, MaxDepth: 8, MinLeaf: 1, Seed: 1}
	if err := full.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(t, full, x, y); acc < 0.95 {
		t.Errorf("deep tree should fit XOR, got %g", acc)
	}
}

func TestDecisionTreeScore(t *testing.T) {
	x, y := blobs2D(30, 0.4, 17)
	tree := &DecisionTree{MaxDepth: 6, MinLeaf: 1, Seed: 1}
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if s := tree.Score([]float64{2, 2}); s < 0.5 {
		t.Errorf("positive region score %g", s)
	}
	if s := tree.Score([]float64{-2, -2}); s > 0.5 {
		t.Errorf("negative region score %g", s)
	}
}

func TestDecisionTreeErrors(t *testing.T) {
	tree := NewDecisionTree()
	if err := tree.Fit(nil, nil); err == nil {
		t.Error("expected error on empty data")
	}
	if err := tree.Fit([][]float64{{1}}, []int{-1}); err == nil {
		t.Error("expected error on negative label")
	}
}

func TestRandomForestXOR(t *testing.T) {
	x, y := xorData(25, 19)
	f := NewRandomForest()
	f.NumTrees = 40
	if err := f.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := xorData(25, 20)
	if acc := accuracyOf(t, f, tx, ty); acc < 0.9 {
		t.Errorf("forest accuracy %g on XOR", acc)
	}
	if s := f.Score(tx[0]); s < 0 || s > 1 {
		t.Errorf("forest score %g outside [0,1]", s)
	}
}

func TestKNN(t *testing.T) {
	x, y := blobs2D(30, 0.5, 21)
	k := NewKNN()
	if err := k.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	tx, ty := blobs2D(30, 0.5, 22)
	if acc := accuracyOf(t, k, tx, ty); acc < 0.95 {
		t.Errorf("kNN accuracy %g", acc)
	}
	if s := k.Score([]float64{2, 2}); s != 1 {
		t.Errorf("deep positive 3-NN score %g, want 1", s)
	}
}

func TestKNNKLargerThanData(t *testing.T) {
	k := &KNN{K: 50}
	if err := k.Fit([][]float64{{0}, {1}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Must not panic; falls back to all points.
	k.Predict([]float64{0.4})
}

func TestPipelineStandardizesForInner(t *testing.T) {
	// Features at wildly different scales: without standardization the
	// RBF kernel saturates. The pipeline should cope.
	rng := rand.New(rand.NewPCG(25, 26))
	var x [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		cls := i % 2
		base := -1.0
		if cls == 1 {
			base = 1
		}
		x = append(x, []float64{base + 0.3*rng.NormFloat64(), 1e6 * (base + 0.3*rng.NormFloat64())})
		y = append(y, cls)
	}
	p := NewPipeline(NewSVM(10, RBFKernel{Gamma: 0.5}))
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if p.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if float64(correct)/float64(len(x)) < 0.9 {
		t.Errorf("pipeline accuracy %d/%d on mixed-scale data", correct, len(x))
	}
}

func TestCountClasses(t *testing.T) {
	got := CountClasses([]int{0, 1, 1, 2})
	if got[0] != 1 || got[1] != 2 || got[2] != 1 {
		t.Errorf("CountClasses = %v", got)
	}
}

func TestSVMDeterministicWithSeed(t *testing.T) {
	x, y := blobs2D(30, 0.6, 29)
	run := func() []float64 {
		svm := NewSVM(1, RBFKernel{Gamma: 0.5})
		svm.Seed = 42
		if err := svm.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(x))
		for i := range x {
			out[i] = svm.Score(x[i])
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SVM training not deterministic under fixed seed")
		}
	}
}

func TestRBFKernelProperty(t *testing.T) {
	// 0 < K(a,b) <= 1 and K(a,a) = 1 for any finite inputs.
	f := func(a, b [3]float64) bool {
		av := []float64{clamp(a[0]), clamp(a[1]), clamp(a[2])}
		bv := []float64{clamp(b[0]), clamp(b[1]), clamp(b[2])}
		k := RBFKernel{Gamma: 0.1}
		v := k.Eval(av, bv)
		// v may underflow to exactly 0 for far-apart points.
		return v >= 0 && v <= 1+1e-12 && math.Abs(k.Eval(av, av)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v > 100 {
		return 100
	}
	if v < -100 {
		return -100
	}
	return v
}
