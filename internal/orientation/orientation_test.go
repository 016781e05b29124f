package orientation

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/ml"
)

func TestDefinitionLabels(t *testing.T) {
	// Definition-4: ±30 facing, ±90..180 non-facing, ±45..75
	// excluded.
	cases := []struct {
		angle float64
		label int
		ok    bool
	}{
		{0, LabelFacing, true},
		{15, LabelFacing, true},
		{-30, LabelFacing, true},
		{45, 0, false},
		{60, 0, false},
		{75, 0, false},
		{90, LabelNonFacing, true},
		{-135, LabelNonFacing, true},
		{180, LabelNonFacing, true},
		{-180, LabelNonFacing, true}, // normalizes to 180
	}
	for _, c := range cases {
		label, ok := Definition4.Label(c.angle)
		if ok != c.ok || (ok && label != c.label) {
			t.Errorf("Definition4.Label(%g) = (%d, %v), want (%d, %v)", c.angle, label, ok, c.label, c.ok)
		}
	}
}

func TestDefinition1IncludesBorderline45(t *testing.T) {
	if l, ok := Definition1.Label(45); !ok || l != LabelFacing {
		t.Error("Definition-1 should train ±45 as facing")
	}
	if l, ok := Definition2.Label(60); !ok || l != LabelNonFacing {
		t.Error("Definition-2 should train ±60 as non-facing")
	}
	if _, ok := Definition3.Label(60); ok {
		t.Error("Definition-3 should exclude ±60")
	}
}

func TestDefinitionsTableOrder(t *testing.T) {
	defs := Definitions()
	if len(defs) != 4 {
		t.Fatalf("%d definitions", len(defs))
	}
	for i, d := range defs {
		if len(d.Facing) == 0 || len(d.NonFacing) == 0 {
			t.Errorf("definition %d has empty arcs", i)
		}
	}
}

func TestGroundTruthFacing(t *testing.T) {
	for _, a := range []float64{0, 15, -15, 30, -30} {
		if !GroundTruthFacing(a) {
			t.Errorf("%g should be facing", a)
		}
	}
	for _, a := range []float64{45, -45, 90, 135, 180, -60} {
		if GroundTruthFacing(a) {
			t.Errorf("%g should be non-facing", a)
		}
	}
}

// blobs builds separable 3-D features.
func blobs(n int, seed uint64) (x [][]float64, y []int) {
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < n; i++ {
		cls := i % 2
		base := -1.5
		if cls == 1 {
			base = 1.5
		}
		x = append(x, []float64{
			base + 0.5*rng.NormFloat64(),
			base + 0.5*rng.NormFloat64(),
			rng.NormFloat64(),
		})
		y = append(y, cls)
	}
	return x, y
}

func TestTrainEvaluate(t *testing.T) {
	x, y := blobs(80, 2)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := blobs(60, 3)
	metrics, err := m.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Accuracy() < 0.9 {
		t.Errorf("accuracy %g on separable blobs", metrics.Accuracy())
	}
	if len(m.trainX) != 80 {
		t.Errorf("training size %d", len(m.trainX))
	}
}

func TestCheckFeaturesFailsClosed(t *testing.T) {
	x, y := blobs(40, 5)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.FeatureDim() != 3 {
		t.Fatalf("FeatureDim = %d, want 3", m.FeatureDim())
	}
	if err := m.CheckFeatures([]float64{0.1, -0.2, 0.3}); err != nil {
		t.Fatalf("well-formed vector rejected: %v", err)
	}
	// Wrong dimensionality: a degraded array's pair set.
	if err := m.CheckFeatures([]float64{0.1, -0.2}); err == nil {
		t.Fatal("2-dim vector accepted by 3-dim model")
	}
	// Non-finite features: upstream DSP fault.
	if err := m.CheckFeatures([]float64{0.1, math.NaN(), 0.3}); err == nil {
		t.Fatal("NaN feature accepted")
	}
	if err := m.CheckFeatures([]float64{0.1, math.Inf(1), 0.3}); err == nil {
		t.Fatal("Inf feature accepted")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, ModelConfig{}); err == nil {
		t.Error("expected error on empty training set")
	}
	if _, err := Train([][]float64{{1}}, []int{0, 1}, ModelConfig{}); err == nil {
		t.Error("expected error on length mismatch")
	}
}

func TestConfidenceCalibrated(t *testing.T) {
	x, y := blobs(80, 4)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	deepPos := m.Confidence([]float64{1.5, 1.5, 0})
	deepNeg := m.Confidence([]float64{-1.5, -1.5, 0})
	if deepPos < 0.8 {
		t.Errorf("deep facing confidence %g", deepPos)
	}
	if deepNeg > 0.2 {
		t.Errorf("deep non-facing confidence %g", deepNeg)
	}
}

func TestIncrementalUpdateAbsorbsConfident(t *testing.T) {
	x, y := blobs(60, 5)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.trainX)
	// Deep in-class candidates are high-confidence.
	candidates := [][]float64{{1.8, 1.8, 0}, {-1.8, -1.8, 0}}
	added, err := m.IncrementalUpdate(candidates, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Errorf("absorbed %d, want 2", added)
	}
	if len(m.trainX) != before+2 {
		t.Errorf("training size %d", len(m.trainX))
	}
	// Boundary candidates should be filtered.
	added, err = m.IncrementalUpdate([][]float64{{0, 0, 0}}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("boundary candidate absorbed (added=%d)", added)
	}
}

func TestTrainWithAlternativeClassifier(t *testing.T) {
	x, y := blobs(60, 8)
	m, err := TrainWith(x, y, ml.NewKNN())
	if err != nil {
		t.Fatal(err)
	}
	tx, ty := blobs(40, 9)
	metrics, err := m.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Accuracy() < 0.9 {
		t.Errorf("kNN-backed model accuracy %g", metrics.Accuracy())
	}
	// Confidence falls back to clipped score for non-SVM models.
	if c := m.Confidence(tx[0]); c < 0 || c > 1 {
		t.Errorf("confidence %g outside [0,1]", c)
	}
}
