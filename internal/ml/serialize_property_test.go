package ml

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// tinySVM trains a small RBF SVM — enough support vectors to make the
// document non-trivial, cheap enough for a property test.
func tinySVM(t testing.TB) *SVM {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 9))
	x := make([][]float64, 16)
	y := make([]int, 16)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if i%2 == 0 {
			x[i][0] += 3
			y[i] = 1
		} else {
			x[i][0] -= 3
			y[i] = 0
		}
	}
	s := NewSVM(1, RBFKernel{Gamma: 0.5})
	if err := s.Fit(x, y); err != nil {
		t.Fatalf("fitting tiny SVM: %v", err)
	}
	return s
}

// tinyConvNet trains a minimal network — one conv layer, a few short
// sequences, one epoch.
func tinyConvNet(t testing.TB) *ConvNet {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 11))
	cfg := ConvNetConfig{
		InputDim: 4, ConvChannels: []int{3}, KernelSize: 3, PoolStride: 2,
		HiddenDim: 4, LearningRate: 1e-3, Epochs: 1, BatchSize: 2, Seed: 2,
	}
	x := make([][][]float64, 6)
	y := make([]int, 6)
	for i := range x {
		seq := make([][]float64, 12)
		for f := range seq {
			seq[f] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		x[i] = seq
		y[i] = i % 2
	}
	c := NewConvNet(cfg)
	if err := c.Fit(x, y); err != nil {
		t.Fatalf("fitting tiny ConvNet: %v", err)
	}
	return c
}

// TestSVMRoundTripByteIdentical is the snapshot-stability property:
// serialize → deserialize → serialize must reproduce the exact bytes,
// so a migrated model's checksum stays stable across cluster hops.
func TestSVMRoundTripByteIdentical(t *testing.T) {
	s := tinySVM(t)
	var first bytes.Buffer
	if err := SaveSVM(&first, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSVM(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveSVM(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("SVM round trip not byte-identical:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
	}
}

func TestConvNetRoundTripByteIdentical(t *testing.T) {
	c := tinyConvNet(t)
	var first bytes.Buffer
	if err := SaveConvNet(&first, c); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConvNet(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := SaveConvNet(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("ConvNet round trip not byte-identical")
	}
}

// TestLoadSVMTypedErrors: corrupted, truncated and version-skewed
// documents must return matchable errors, never panic.
func TestLoadSVMTypedErrors(t *testing.T) {
	var valid bytes.Buffer
	if err := SaveSVM(&valid, tinySVM(t)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"empty", "", ErrCorruptModel},
		{"garbage", "not json at all", ErrCorruptModel},
		{"truncated", valid.String()[:valid.Len()/2], ErrCorruptModel},
		{"wrong_version", `{"version":99,"kernel":"linear"}`, ErrUnsupportedVersion},
		{"unknown_kernel", `{"version":1,"kernel":"quantum"}`, ErrCorruptModel},
		{"inconsistent", `{"version":1,"kernel":"linear","support_vectors":[[1,2]],"alphas":[],"support_labels":[1]}`, ErrCorruptModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadSVM(strings.NewReader(tc.doc))
			if m != nil || !errors.Is(err, tc.want) {
				t.Fatalf("LoadSVM(%s) = %v, %v; want errors.Is(err, %v)", tc.name, m, err, tc.want)
			}
		})
	}
}

func TestLoadConvNetTypedErrors(t *testing.T) {
	var valid bytes.Buffer
	if err := SaveConvNet(&valid, tinyConvNet(t)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		doc  string
		want error
	}{
		{"empty", "", ErrCorruptModel},
		{"truncated", valid.String()[:valid.Len()/3], ErrCorruptModel},
		{"wrong_version", `{"version":7,"config":{}}`, ErrUnsupportedVersion},
		{"layer_count", `{"version":1,"config":{"InputDim":4,"ConvChannels":[2,2],"KernelSize":3,"HiddenDim":4},"convs":[{"w":[],"b":[]}],"dense1":{},"dense2":{}}`, ErrCorruptModel},
		{"negative_dim", `{"version":1,"config":{"InputDim":-4,"ConvChannels":[2],"KernelSize":3,"HiddenDim":4},"convs":[{"w":[],"b":[]}],"dense1":{},"dense2":{}}`, ErrCorruptModel},
		{"absurd_dim", `{"version":1,"config":{"InputDim":4,"ConvChannels":[1073741824],"KernelSize":3,"HiddenDim":4},"convs":[{"w":[],"b":[]}],"dense1":{},"dense2":{}}`, ErrCorruptModel},
		{"shape_mismatch", `{"version":1,"config":{"InputDim":4,"ConvChannels":[2],"KernelSize":3,"HiddenDim":4},"convs":[{"w":[1],"b":[1]}],"dense1":{"w":[1],"b":[1]},"dense2":{"w":[1],"b":[1]}}`, ErrCorruptModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := LoadConvNet(strings.NewReader(tc.doc))
			if m != nil || !errors.Is(err, tc.want) {
				t.Fatalf("LoadConvNet(%s) = %v, %v; want errors.Is(err, %v)", tc.name, m, err, tc.want)
			}
		})
	}
}

// TestLoadConvNetClaimAllocatesWhatArrives: a document whose config
// claims a 16M-weight conv layer but carries no weights fails before
// the network is built (building it first cost 384 MiB with the
// optimizer state).
func TestLoadConvNetClaimAllocatesWhatArrives(t *testing.T) {
	doc := `{"version":1,"config":{"InputDim":1024,"ConvChannels":[1024],"KernelSize":16,"HiddenDim":4},"convs":[{"w":[],"b":[]}],"dense1":{},"dense2":{}}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadConvNet(strings.NewReader(doc))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("LoadConvNet = %v, want ErrCorruptModel", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing a %d-byte document allocated %d bytes, want < 1 MiB", len(doc), got)
	}
}

// FuzzLoadSVM asserts the decoder's never-panic contract: arbitrary
// bytes either load a model that re-saves cleanly or fail with one of
// the two typed sentinels.
func FuzzLoadSVM(f *testing.F) {
	var valid bytes.Buffer
	if err := SaveSVM(&valid, tinySVM(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(`{"version":99,"kernel":"linear"}`))
	f.Add([]byte(`{"version":1,"kernel":"rbf","gamma":1e308}`))
	f.Add([]byte("\x00\x01\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadSVM(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		if err := SaveSVM(&bytes.Buffer{}, m); err != nil {
			t.Fatalf("loaded model does not re-save: %v", err)
		}
	})
}

func FuzzLoadConvNet(f *testing.F) {
	var valid bytes.Buffer
	if err := SaveConvNet(&valid, tinyConvNet(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte(`{"version":7,"config":{}}`))
	f.Add([]byte(`{"version":1,"config":{"InputDim":-1,"ConvChannels":[2]},"convs":[{"w":[],"b":[]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadConvNet(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		if err := SaveConvNet(&bytes.Buffer{}, m); err != nil {
			t.Fatalf("loaded network does not re-save: %v", err)
		}
	})
}
