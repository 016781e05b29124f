package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
)

// denseTaps turns an impulse response into one tap per sample.
func denseTaps(h []float64) []SparseTap {
	taps := make([]SparseTap, len(h))
	for i, g := range h {
		taps[i] = SparseTap{Delay: i, Gain: g}
	}
	return taps
}

func TestConvolveIdentity(t *testing.T) {
	x := []float64{1, 2, 3}
	got := make([]float64, len(x))
	ConvolveSparse(got, x, []SparseTap{{Delay: 0, Gain: 1}})
	for i, v := range x {
		if got[i] != v {
			t.Fatalf("identity convolution mismatch at %d", i)
		}
	}
}

func TestConvolveKnown(t *testing.T) {
	got := make([]float64, 4)
	ConvolveSparse(got, []float64{1, 2, 3}, denseTaps([]float64{0, 1}))
	want := []float64{0, 1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestConvolveDirectMatchesFFT checks a dense-tap ConvolveSparse, the
// full linear convolution, against the product of real spectra.
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
	direct := make([]float64, len(x)+len(h)-1)
	ConvolveSparse(direct, x, denseTaps(h))
	p := Plan(NextPow2(len(direct)))
	xf := p.RFFT(nil, x)
	hf := p.RFFT(nil, h)
	for i := range xf {
		xf[i] *= hf[i]
	}
	fft := p.IRFFT(nil, xf)
	for i := range direct {
		if math.Abs(direct[i]-fft[i]) > 1e-8 {
			t.Fatalf("mismatch at %d: %g vs %g", i, direct[i], fft[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	dst := []float64{1, 2}
	ConvolveSparse(dst, nil, []SparseTap{{Delay: 0, Gain: 1}})
	ConvolveSparse(dst, []float64{1}, nil)
	if dst[0] != 1 || dst[1] != 2 {
		t.Errorf("empty input or response changed dst: %v", dst)
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
