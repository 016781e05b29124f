package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
)

func TestConvolutionTheorem(t *testing.T) {
	// forwardCopy(x ⊛ h) = forwardCopy(x) · forwardCopy(h) for circular convolution; verify
	// via the linear-convolution helper against the spectral product.
	rng := rand.New(rand.NewPCG(41, 42))
	n := 64
	x := make([]float64, n)
	h := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		h[i] = rng.NormFloat64()
	}
	lin := make([]float64, 2*n-1)
	ConvolveSparse(lin, x, denseTaps(h))
	m := NextPow2(2 * n)
	fx := make([]complex128, m)
	fh := make([]complex128, m)
	for i := 0; i < n; i++ {
		fx[i] = complex(x[i], 0)
		fh[i] = complex(h[i], 0)
	}
	fx = forwardCopy(fx)
	fh = forwardCopy(fh)
	for i := range fx {
		fx[i] *= fh[i]
	}
	back := inverseCopy(fx)
	for i := range lin {
		if cmplx.Abs(back[i]-complex(lin[i], 0)) > 1e-8 {
			t.Fatalf("convolution theorem violated at %d", i)
		}
	}
}

func TestBlackmanWindowShape(t *testing.T) {
	c := Blackman.Coefficients(128)
	// Blackman edges are ~0 (slightly negative rounding is the exact
	// -0.0000… value of the formula).
	if math.Abs(c[0]) > 1e-12 {
		t.Errorf("Blackman edge %g", c[0])
	}
	if c[64] < 0.99 {
		t.Errorf("Blackman center %g", c[64])
	}
}

func TestFIRFilterImpulse(t *testing.T) {
	h := []float64{0.25, 0.5, 0.25}
	x := make([]float64, 8)
	x[2] = 1
	y := FIRFilter(x, h)
	want := []float64{0, 0, 0.25, 0.5, 0.25, 0, 0, 0}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("FIR impulse mismatch at %d: %g", i, y[i])
		}
	}
}

func TestWindowStrings(t *testing.T) {
	names := map[Window]string{
		Rectangular: "rectangular", Hann: "hann", Hamming: "hamming",
		Blackman: "blackman", Window(99): "unknown",
	}
	for w, want := range names {
		if got := w.String(); got != want {
			t.Errorf("%d.String() = %q", w, got)
		}
	}
}
