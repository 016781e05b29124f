package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3}
	got := Convolve(x, []float64{1})
	for i, v := range x {
		if got[i] != v {
			t.Fatalf("identity convolution mismatch at %d", i)
		}
	}
}

func TestConvolveKnown(t *testing.T) {
	got := Convolve([]float64{1, 2, 3}, []float64{0, 1})
	want := []float64{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestConvolveDirectMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, 300)
	h := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	direct := convolveDirect(x, h)
	fft := convolveFFT(x, h)
	if len(direct) != len(fft) {
		t.Fatalf("length mismatch %d vs %d", len(direct), len(fft))
	}
	for i := range direct {
		if math.Abs(direct[i]-fft[i]) > 1e-8 {
			t.Fatalf("mismatch at %d: %g vs %g", i, direct[i], fft[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil {
		t.Error("empty x should give nil")
	}
	if Convolve([]float64{1}, nil) != nil {
		t.Error("empty h should give nil")
	}
}

func TestConvolveSparse(t *testing.T) {
	x := []float64{1, 2, 3}
	dst := make([]float64, 8)
	ConvolveSparse(dst, x, []SparseTap{{Delay: 0, Gain: 1}, {Delay: 2, Gain: 0.5}})
	want := []float64{1, 2, 3.5, 1, 1.5, 0, 0, 0}
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %g vs %g", i, dst[i], want[i])
		}
	}
}

func TestConvolveSparseTruncates(t *testing.T) {
	dst := make([]float64, 3)
	ConvolveSparse(dst, []float64{1, 1, 1, 1}, []SparseTap{{Delay: 2, Gain: 1}})
	want := []float64{0, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("truncation mismatch at %d", i)
		}
	}
}

func TestConvolveSparseIgnoresInvalidTaps(t *testing.T) {
	dst := make([]float64, 4)
	ConvolveSparse(dst, []float64{1}, []SparseTap{{Delay: -1, Gain: 5}, {Delay: 1, Gain: 0}})
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("invalid taps wrote output at %d: %g", i, v)
		}
	}
}

func TestConvolveSparseAccumulates(t *testing.T) {
	dst := []float64{10, 0}
	ConvolveSparse(dst, []float64{1}, []SparseTap{{Delay: 0, Gain: 2}})
	if dst[0] != 12 {
		t.Fatalf("expected accumulation into dst, got %g", dst[0])
	}
}
