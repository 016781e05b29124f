package ml

import (
	"bytes"
	"strings"
	"testing"
)

func TestSVMSaveLoadRoundTrip(t *testing.T) {
	x, y := blobs2D(40, 0.5, 31)
	svm := NewSVM(1, RBFKernel{Gamma: 0.5})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSVM(&buf, svm); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := blobs2D(20, 0.5, 32)
	for _, xi := range tx {
		if svm.Score(xi) != loaded.Score(xi) {
			t.Fatalf("score mismatch after reload")
		}
		if svm.PredictProba(xi) != loaded.PredictProba(xi) {
			t.Fatalf("probability mismatch after reload")
		}
	}
}

func TestSVMSaveLoadLinearKernel(t *testing.T) {
	x, y := blobs2D(20, 0.5, 33)
	svm := NewSVM(1, LinearKernel{})
	if err := svm.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSVM(&buf, svm); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Predict(x[0]) != svm.Predict(x[0]) {
		t.Error("linear kernel reload mismatch")
	}
}

func TestLoadSVMRejectsBadDocuments(t *testing.T) {
	if _, err := LoadSVM(strings.NewReader("not json")); err == nil {
		t.Error("expected error for garbage")
	}
	if _, err := LoadSVM(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("expected error for unknown version")
	}
	if _, err := LoadSVM(strings.NewReader(`{"version":1,"kernel":"poly"}`)); err == nil {
		t.Error("expected error for unknown kernel")
	}
	if _, err := LoadSVM(strings.NewReader(`{"version":1,"kernel":"rbf","support_vectors":[[1]],"alphas":[]}`)); err == nil {
		t.Error("expected error for inconsistent document")
	}
}

func TestStandardizerJSONRoundTrip(t *testing.T) {
	var s Standardizer
	if err := s.Fit([][]float64{{1, 10}, {3, 30}}); err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Standardizer
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	in := []float64{2, 20}
	a := s.Transform(in)
	b := back.Transform(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("standardizer reload mismatch")
		}
	}
	if err := back.UnmarshalJSON([]byte(`{"mean":[1],"std":[]}`)); err == nil {
		t.Error("expected error for inconsistent scaler")
	}
}

func TestConvNetSaveLoadRoundTrip(t *testing.T) {
	x, y := sequenceData(24, 34)
	cfg := DefaultConvNetConfig(6)
	cfg.ConvChannels = []int{8}
	cfg.Epochs = 10
	net := NewConvNet(cfg)
	if err := net.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveConvNet(&buf, net); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConvNet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := sequenceData(10, 35)
	for _, seq := range tx {
		a, err := net.PredictProbaWith(&ConvNetWorkspace{}, seq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PredictProbaWith(&ConvNetWorkspace{}, seq)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("probability mismatch after reload: %g vs %g", a, b)
		}
	}
	// Reloaded networks remain adaptable.
	if err := loaded.ContinueFit(x, y, 2); err != nil {
		t.Fatal(err)
	}
}

func TestSaveConvNetUntrained(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveConvNet(&buf, NewConvNet(DefaultConvNetConfig(4))); err == nil {
		t.Error("expected error for untrained network")
	}
}

func TestRestorePipeline(t *testing.T) {
	x, y := blobs2D(30, 0.5, 36)
	p := NewPipeline(NewKNN())
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	scalerJSON, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Restore: the inner classifier is serialized separately by its own
	// format; here we rebuild it by refitting on transformed data.
	inner := NewKNN()
	var scaler Standardizer
	if err := scaler.UnmarshalJSON(scalerJSON); err != nil {
		t.Fatal(err)
	}
	tx := make([][]float64, len(x))
	for i := range x {
		tx[i] = scaler.Transform(x[i])
	}
	if err := inner.Fit(tx, y); err != nil {
		t.Fatal(err)
	}
	restored, err := RestorePipeline(scalerJSON, inner)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if restored.Predict(x[i]) != p.Predict(x[i]) {
			t.Fatal("restored pipeline disagrees")
		}
	}
}
