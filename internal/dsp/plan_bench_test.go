package dsp

// FFT-engine benchmarks. BENCH_pr3.json records the pre-plan baseline
// for the equivalent operations (tag "pr3-baseline"); `make bench`
// appends current numbers so the trajectory stays diffable.

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func benchReal(n int) []float64 {
	rng := rand.New(rand.NewPCG(42, 43))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func benchComplex(n int) []complex128 {
	rng := rand.New(rand.NewPCG(7, 9))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// BenchmarkRFFT compares the real-transform paths at n=1024 (the
// spotter's frame size): the packed planned transform with a reused
// destination and the same transform allocating its output (the
// pre-plan full-complex-spectrum number lives in BENCH_pr3.json).
func BenchmarkRFFT(b *testing.B) {
	x := benchReal(1024)
	b.Run("alloc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RFFT(nil, x)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		p := Plan(1024)
		dst := make([]complex128, 513)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.RFFT(dst, x)
		}
	})
}

// BenchmarkFFTPlan measures the planned complex transform (twiddle
// tables + cached bit-reversal) at a GCC-scale size, and at the size of
// the complex transform inside a 65 536-point real GCC transform.
func BenchmarkFFTPlan(b *testing.B) {
	for _, n := range []int{4096, 32768} {
		b.Run(fmt.Sprintf("forward%d", n), func(b *testing.B) {
			in := benchComplex(n)
			p := Plan(n)
			buf := make([]complex128, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, in)
				p.Forward(buf)
			}
		})
	}
}

// BenchmarkBluestein measures the cached-chirp non-power-of-two path.
func BenchmarkBluestein(b *testing.B) {
	x := benchComplex(1000)
	p := Plan(len(x))
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}

// BenchmarkWelchPSD averages periodograms over a paper-scale analysis
// window.
func BenchmarkWelchPSD(b *testing.B) {
	x := benchReal(32768)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := welchPSD(x, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIRFFTLags times one GCC pair inverse at paper scale (a
// 32 768-sample window padded to m = 65 536, MaxLag 21): the whole
// IRFFT against the lag-pruned inverse that computes only the window,
// on a dense spectrum and on one zero outside the orientation features'
// 100–8000 Hz GCC band at 48 kHz (bins 137–10 923), as a band-limited
// cross-spectrum is.
func BenchmarkIRFFTLags(b *testing.B) {
	const m, maxLag = 65536, 21
	p := Plan(m)
	spec := p.RFFT(nil, benchReal(m))
	band := append([]complex128(nil), spec...)
	clear(band[:137])
	clear(band[10924:])
	b.Run("full", func(b *testing.B) {
		r := make([]float64, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.IRFFT(r, spec)
		}
	})
	for _, c := range []struct {
		name string
		spec []complex128
	}{{"pruned", spec}, {"band", band}} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, 2*maxLag+1)
			scratch := make([]complex128, m/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.IRFFTLags(dst, c.spec, maxLag, scratch)
			}
		})
	}
}
