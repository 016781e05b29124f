package orientation

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"headtalk/internal/ml"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	x, y := blobs(60, 51)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := blobs(30, 52)
	for _, xi := range tx {
		if m.Predict(xi) != loaded.Predict(xi) {
			t.Fatal("prediction mismatch after reload")
		}
		if m.Score(xi) != loaded.Score(xi) {
			t.Fatal("score mismatch after reload")
		}
		if m.Confidence(xi) != loaded.Confidence(xi) {
			t.Fatal("confidence mismatch after reload")
		}
	}
	if len(loaded.trainX) != len(m.trainX) {
		t.Error("retained training set lost in reload")
	}
	// The reloaded model must still support incremental retraining.
	if _, err := loaded.IncrementalUpdate([][]float64{{1.9, 1.9, 0}}, 0.8); err != nil {
		t.Fatalf("incremental update after reload: %v", err)
	}
}

func TestModelSaveRejectsNonSVM(t *testing.T) {
	x, y := blobs(20, 53)
	m, err := TrainWith(x, y, ml.NewKNN())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Error("expected error for non-SVM model")
	}
}

func TestLoadRejectsBadDocuments(t *testing.T) {
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("expected error for garbage")
	}
	if _, err := Load(strings.NewReader(`{"version":42}`)); err == nil {
		t.Error("expected error for unknown version")
	}
}

// TestModelRoundTripByteIdentical: serialize → deserialize → serialize
// must reproduce the exact bytes so snapshot checksums stay stable when
// a tenant migrates between cluster nodes.
func TestModelRoundTripByteIdentical(t *testing.T) {
	x, y := blobs(40, 54)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := m.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("orientation model round trip not byte-identical")
	}
}

// TestLoadTypedErrors: every load failure chains to one of the shared
// sentinels and never panics, even for truncated or hostile documents.
func TestLoadTypedErrors(t *testing.T) {
	x, y := blobs(40, 55)
	m, err := Train(x, y, ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var valid bytes.Buffer
	if err := m.Save(&valid); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"empty", "", ErrCorruptModel},
		{"garbage", "][", ErrCorruptModel},
		{"truncated", valid.String()[:valid.Len()/2], ErrCorruptModel},
		{"wrong_version", `{"version":42}`, ErrUnsupportedVersion},
		{"bad_inner_svm", `{"version":1,"config":{},"scaler":{"mean":[],"std":[]},"svm":"bm90IGpzb24=","train_x":[],"train_y":[]}`, ErrCorruptModel},
		{"trainset_mismatch", strings.Replace(valid.String(), `"train_y":[`, `"train_y":[5,`, 1), ErrCorruptModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Load(strings.NewReader(tc.doc))
			if got != nil || !errors.Is(err, tc.want) {
				t.Fatalf("Load(%s) = %v, %v; want errors.Is(err, %v)", tc.name, got, err, tc.want)
			}
		})
	}
}
