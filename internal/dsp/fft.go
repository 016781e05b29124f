// Package dsp provides the signal-processing primitives HeadTalk is
// built on: FFTs, window functions, IIR/FIR filters, resampling,
// convolution, spectral analysis and descriptive statistics. Everything
// is implemented from scratch on top of the standard library so the
// module has no external dependencies.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// NextPow2 returns the smallest power of two >= n. It returns 1 for
// n <= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the discrete Fourier transform of x and returns a newly
// allocated slice. The input is not modified. Any length is supported:
// power-of-two sizes use an iterative radix-2 Cooley-Tukey transform,
// other sizes fall back to Bluestein's algorithm.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, false)
	return out
}

// IFFT computes the inverse discrete Fourier transform of x, including
// the 1/N normalization, and returns a newly allocated slice.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out, true)
	return out
}

// fftInPlace transforms x in place through the cached plan for its
// length. When inverse is true the conjugate transform is applied and
// the result is scaled by 1/len(x).
func fftInPlace(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	p := Plan(n)
	if inverse {
		p.Inverse(x)
	} else {
		p.Forward(x)
	}
}

// HalfSpectrum returns the non-redundant half of a real signal's
// spectrum: bins 0..n/2 inclusive (n/2+1 bins for even n). It runs the
// packed real transform (see FFTPlan.RFFT); use HalfSpectrumInto to
// reuse an output buffer across calls.
func HalfSpectrum(x []float64) []complex128 {
	return RFFT(nil, x)
}

// Magnitude returns |spec[i]| for every bin.
func Magnitude(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for i, v := range spec {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// BinFreq returns the center frequency in Hz of FFT bin i for a
// transform of length n at sample rate fs.
func BinFreq(i, n int, fs float64) float64 {
	return float64(i) * fs / float64(n)
}

// FreqBin returns the FFT bin index closest to frequency f for a
// transform of length n at sample rate fs, clamped to [0, n-1].
func FreqBin(f float64, n int, fs float64) int {
	bin := int(math.Round(f * float64(n) / fs))
	if bin < 0 {
		bin = 0
	}
	if bin >= n {
		bin = n - 1
	}
	return bin
}
