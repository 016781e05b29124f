package ml

import (
	"math"
	"testing"
)

func TestBinaryMetricsCounts(t *testing.T) {
	yTrue := []int{1, 1, 1, 0, 0, 0}
	yPred := []int{1, 1, 0, 0, 0, 1}
	m, err := EvaluateBinary(yTrue, yPred)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 2 || m.FN != 1 || m.TN != 2 || m.FP != 1 {
		t.Fatalf("counts %+v", m)
	}
	if math.Abs(m.Accuracy()-4.0/6) > 1e-12 {
		t.Errorf("accuracy %g", m.Accuracy())
	}
	if math.Abs(m.Precision()-2.0/3) > 1e-12 {
		t.Errorf("precision %g", m.Precision())
	}
	if math.Abs(m.Recall()-2.0/3) > 1e-12 {
		t.Errorf("recall %g", m.Recall())
	}
	if math.Abs(m.F1()-2.0/3) > 1e-12 {
		t.Errorf("F1 %g", m.F1())
	}
	if math.Abs(m.FAR()-1.0/3) > 1e-12 {
		t.Errorf("FAR %g", m.FAR())
	}
	if math.Abs(m.FRR()-1.0/3) > 1e-12 {
		t.Errorf("FRR %g", m.FRR())
	}
}

func TestBinaryMetricsDegenerate(t *testing.T) {
	var m BinaryMetrics
	if m.Accuracy() != 0 || m.Precision() != 0 || m.Recall() != 0 || m.F1() != 0 || m.FAR() != 0 || m.FRR() != 0 {
		t.Error("zero-count metrics should all be 0")
	}
	if _, err := EvaluateBinary([]int{1}, []int{1, 0}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestEERPerfectSeparation(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.3, 0.7, 0.8, 0.9}
	labels := []int{0, 0, 0, 1, 1, 1}
	eer, thr, err := EER(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if eer > 1e-9 {
		t.Errorf("EER %g, want 0 for perfect separation", eer)
	}
	if thr <= 0.3 || thr > 0.7 {
		t.Errorf("threshold %g should fall in the separation gap", thr)
	}
}

func TestEERCompleteOverlap(t *testing.T) {
	// Reversed scores: positives score LOWER than negatives.
	scores := []float64{0.9, 0.8, 0.1, 0.2}
	labels := []int{0, 0, 1, 1}
	eer, _, err := EER(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if eer < 0.5 {
		t.Errorf("EER %g, want >= 0.5 for anti-correlated scores", eer)
	}
}

func TestEERPartialOverlap(t *testing.T) {
	scores := []float64{0.1, 0.4, 0.45, 0.5, 0.55, 0.6, 0.9, 0.95}
	labels := []int{0, 0, 1, 0, 1, 0, 1, 1}
	eer, _, err := EER(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if eer <= 0 || eer >= 0.5 {
		t.Errorf("EER %g for partial overlap, want in (0, 0.5)", eer)
	}
}

func TestEERErrors(t *testing.T) {
	if _, _, err := EER([]float64{1}, []int{1, 0}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, _, err := EER([]float64{1, 2}, []int{1, 1}); err == nil {
		t.Error("expected single-class error")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 {
		t.Errorf("mean %g", mean)
	}
	if math.Abs(std-2.138089935299395) > 1e-9 {
		t.Errorf("sample std %g", std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("empty MeanStd should be 0,0")
	}
	if m, s := MeanStd([]float64{3}); m != 3 || s != 0 {
		t.Error("single-value MeanStd wrong")
	}
}
