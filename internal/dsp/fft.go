// Package dsp provides the signal-processing primitives HeadTalk is
// built on: FFTs, window functions, IIR/FIR filters, resampling,
// convolution, spectral analysis and descriptive statistics. Everything
// is implemented from scratch on top of the standard library so the
// module has no external dependencies.
package dsp

import (
	"math"
	"math/bits"
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

// HalfSpectrum returns the non-redundant half of a real signal's
// spectrum: bins 0..n/2 inclusive (n/2+1 bins for even n). It runs the
// packed real transform (see FFTPlan.RFFT); use RFFT to reuse an
// output buffer across calls.
func HalfSpectrum(x []float64) []complex128 {
	return RFFT(nil, x)
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
