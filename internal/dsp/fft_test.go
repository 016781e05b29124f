package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			out[k] += x[t] * cmplx.Exp(complex(0, angle))
		}
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// forwardCopy and inverseCopy transform a copy of x through the cached
// plan for its length.
func forwardCopy(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	Plan(len(x)).Forward(out)
	return out
}

func inverseCopy(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	Plan(len(x)).Inverse(out)
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// Power-of-two sizes exercise radix-2; others exercise Bluestein.
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 7, 12, 30, 100} {
		x := randComplex(n, rng)
		got := forwardCopy(x)
		want := naiveDFT(x)
		if err := maxErr(got, want); err > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g vs naive DFT", n, err)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{2, 8, 17, 31, 128, 1000} {
		x := randComplex(n, rng)
		back := inverseCopy(forwardCopy(x))
		if err := maxErr(x, back); err > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, err)
		}
	}
}

// TestFFTDoesNotModifyInput: the real transforms read their input
// without writing it, whatever the length's path (radix-2, Bluestein,
// short input read as zero-padded).
func TestFFTDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{64, 100} {
		x := randReal(n-10, rng)
		orig := append([]float64(nil), x...)
		spec := Plan(n).RFFT(nil, x)
		for i := range x {
			if x[i] != orig[i] {
				t.Fatalf("n=%d: RFFT modified its input at %d", n, i)
			}
		}
		specOrig := append([]complex128(nil), spec...)
		Plan(n).IRFFT(nil, spec)
		Plan(n).IRFFTLags(nil, spec, 3, make([]complex128, n/2))
		for i := range spec {
			if spec[i] != specOrig[i] {
				t.Fatalf("n=%d: inverse modified its spectrum at %d", n, i)
			}
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	x := randComplex(32, rng)
	y := randComplex(32, rng)
	sum := make([]complex128, 32)
	for i := range sum {
		sum[i] = x[i] + 2*y[i]
	}
	fx, fy, fsum := forwardCopy(x), forwardCopy(y), forwardCopy(sum)
	for i := range fsum {
		want := fx[i] + 2*fy[i]
		if cmplx.Abs(fsum[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, n := range []int{16, 64, 100} {
		x := randComplex(n, rng)
		spec := forwardCopy(x)
		var timeEnergy, freqEnergy float64
		for i := range x {
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			freqEnergy += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
		}
		freqEnergy /= float64(n)
		if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
			t.Errorf("n=%d: Parseval violated: time=%g freq=%g", n, timeEnergy, freqEnergy)
		}
	}
}

func TestFFTRealSinusoidPeak(t *testing.T) {
	const (
		n  = 1024
		fs = 48000.0
	)
	freq := 1500.0
	// Pick an exact bin frequency to avoid leakage.
	bin := FreqBin(freq, n, fs)
	exact := float64(bin) * fs / n
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * exact * float64(i) / fs)
	}
	mags := MagnitudeInto(nil, HalfSpectrum(x))
	peak := ArgMax(mags)
	if peak != bin {
		t.Fatalf("sinusoid at bin %d peaked at bin %d", bin, peak)
	}
}

func TestHalfSpectrumLength(t *testing.T) {
	for _, n := range []int{2, 16, 100, 1024} {
		x := make([]float64, n)
		if got, want := len(HalfSpectrum(x)), n/2+1; got != want {
			t.Errorf("n=%d: half spectrum length %d, want %d", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestFreqBinClamps(t *testing.T) {
	if got := FreqBin(-100, 64, 48000); got != 0 {
		t.Errorf("negative frequency bin = %d, want 0", got)
	}
	if got := FreqBin(1e9, 64, 48000); got != 63 {
		t.Errorf("huge frequency bin = %d, want 63", got)
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := func(re, im [8]float64) bool {
		x := make([]complex128, 8)
		for i := range x {
			x[i] = complex(clampQuick(re[i]), clampQuick(im[i]))
		}
		back := inverseCopy(forwardCopy(x))
		return maxErr(x, back) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampQuick keeps testing/quick's occasionally huge floats finite.
func clampQuick(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v > 1e6 {
		return 1e6
	}
	if v < -1e6 {
		return -1e6
	}
	return v
}
