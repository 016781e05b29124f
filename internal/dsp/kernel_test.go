package dsp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// kernelSetting is one value of the kernel selector useAVX2.
type kernelSetting struct {
	name string
	avx2 bool
}

// kernelSettings lists the kernel settings this CPU can run: the Go
// loops always, the AVX2 kernels when the CPU check passes.
func kernelSettings() []kernelSetting {
	ks := []kernelSetting{{"go", false}}
	if cpuHasAVX2() {
		ks = append(ks, kernelSetting{"avx2", true})
	}
	return ks
}

// setKernel selects the kernels for the rest of tb, then restores the
// start-up selection.
func setKernel(tb testing.TB, avx2 bool) {
	old := useAVX2
	useAVX2 = avx2
	tb.Cleanup(func() { useAVX2 = old })
}

// forEachKernel runs fn as one subtest per kernel setting.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, k := range kernelSettings() {
		t.Run(k.name, func(t *testing.T) {
			setKernel(t, k.avx2)
			fn(t)
		})
	}
}

// bothKernels returns fn's result under the Go loops and under the
// AVX2 kernels, skipping the test on a CPU without AVX2.
func bothKernels[T any](t *testing.T, fn func() T) (goOut, avx2Out T) {
	t.Helper()
	if !cpuHasAVX2() {
		t.Skip("the CPU has no AVX2")
	}
	old := useAVX2
	defer func() { useAVX2 = old }()
	useAVX2 = false
	goOut = fn()
	useAVX2 = true
	return goOut, fn()
}

// edgeValues are the inputs most likely to expose a kernel that
// reorders, fuses or drops an operation: signed zeros, subnormals,
// values whose products overflow, infinities and NaN.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3,
	1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
}

// edgeSignal returns n Gaussian samples with every fifth replaced by
// an edge value. finite leaves out the infinities and NaN; otherwise
// they appear only in the last eighth of the signal, so the outputs
// before them still carry the finite edge cases.
func edgeSignal(n int, seed uint64, finite bool) []float64 {
	rng := rand.New(rand.NewPCG(seed, 17))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if i%5 != 0 {
			continue
		}
		v := edgeValues[rng.IntN(len(edgeValues))]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			if finite || 8*i < 7*n {
				v = edgeValues[rng.IntN(7)]
			}
		}
		x[i] = v
	}
	return x
}

// edgeComplex pairs up two edge signals.
func edgeComplex(n int, seed uint64, finite bool) []complex128 {
	re, im := edgeSignal(n, seed, finite), edgeSignal(n, seed+1, finite)
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(re[i], im[i])
	}
	return z
}

// The AVX2 butterflies, real-FFT unpack and repack, and Welch window
// and periodogram give the Go loops' bits through every transform that
// runs on them, at every power of two from 4 to 2^17: Forward and
// Inverse, RFFT, IRFFT, IRFFTLags on windows that prune the late
// stages and on windows that run the whole inverse, the Welch frame
// window, and WelchPSD at two frame lengths. NaN must come out at the same positions. Even
// sizes that are not powers of two take the unpack kernel through a
// Bluestein half-size transform.
func TestTransformKernelsMatchGo(t *testing.T) {
	for n := 4; n <= 1<<17; n <<= 1 {
		p := Plan(n)
		for _, finite := range []bool{true, false} {
			what := fmt.Sprintf("n=%d finite=%v", n, finite)
			z := edgeComplex(n, uint64(n), finite)
			x := edgeSignal(n, uint64(n)+7, finite)
			spec := edgeComplex(n/2+1, uint64(n)+9, finite)
			for _, dir := range []struct {
				name string
				run  func([]complex128)
			}{{"Forward", p.Forward}, {"Inverse", p.Inverse}} {
				g, a := bothKernels(t, func() []complex128 {
					out := append([]complex128(nil), z...)
					dir.run(out)
					return out
				})
				sameComplexBits(t, dir.name+" "+what, g, a)
			}
			g, a := bothKernels(t, func() []complex128 { return p.RFFT(nil, x) })
			sameComplexBits(t, "RFFT "+what, g, a)
			gr, ar := bothKernels(t, func() []float64 { return p.IRFFT(nil, spec) })
			sameBits(t, "IRFFT "+what, gr, ar)
			for _, maxLag := range []int{0, 1, 13, 27, n / 8, n/2 - 1, n - 1} {
				if maxLag >= n {
					continue
				}
				gl, al := bothKernels(t, func() []float64 {
					return p.IRFFTLags(nil, spec, maxLag, make([]complex128, n/2))
				})
				sameBits(t, fmt.Sprintf("IRFFTLags maxLag=%d %s", maxLag, what), gl, al)
			}
			// The window's own output, since a frame's signed zeros
			// vanish from the PSD.
			gf, af := bothKernels(t, func() []float64 {
				frame := make([]float64, n)
				windowFrame(frame, x, Hann.Coefficients(n))
				return frame
			})
			sameBits(t, "windowFrame "+what, gf, af)
			for _, frameLen := range []int{n / 2, min(n, 400)} {
				var w PSDWorkspace
				gw, aw := bothKernels(t, func() []float64 {
					psd, err := w.WelchPSD(nil, x, frameLen)
					if err != nil {
						t.Fatal(err)
					}
					return psd
				})
				sameBits(t, fmt.Sprintf("WelchPSD frameLen=%d %s", frameLen, what), gw, aw)
			}
		}
	}
	for _, n := range []int{6, 12, 20, 400, 1000, 2400} {
		p := Plan(n)
		for _, finite := range []bool{true, false} {
			what := fmt.Sprintf("n=%d finite=%v", n, finite)
			x := edgeSignal(n, uint64(n)+7, finite)
			spec := edgeComplex(n/2+1, uint64(n)+9, finite)
			g, a := bothKernels(t, func() []complex128 { return p.RFFT(nil, x) })
			sameComplexBits(t, "RFFT "+what, g, a)
			gr, ar := bothKernels(t, func() []float64 { return p.IRFFT(nil, spec) })
			sameBits(t, "IRFFT "+what, gr, ar)
		}
	}
}

// cascadeSections returns the first s sections of two served-style
// band-passes: the order-5 one (first-order sections included) for
// s <= 6, the order-8 one (eight biquads) above.
func cascadeSections(t *testing.T, s int) *IIRFilter {
	t.Helper()
	order := 5
	if s > 6 {
		order = 8
	}
	f, err := NewButterworthBandPass(order, 100, 16000, 48000)
	if err != nil {
		t.Fatal(err)
	}
	return &IIRFilter{sections: f.sections[:s]}
}

// The AVX2 band-pass gives the Go loops' bits for every section count
// from 1 to 8, at every length from 0 to S+2 (where the skewed pass's
// prologue and epilogue triangles meet or leave no room for it) and at
// the served 52 800: every output sample, and the final section states.
func TestCascadeKernelMatchesGo(t *testing.T) {
	type result struct{ out, state []float64 }
	for s := 1; s <= 8; s++ {
		filt := cascadeSections(t, s)
		lengths := []int{52800}
		for n := 0; n <= s+2; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			for _, finite := range []bool{true, false} {
				x := edgeSignal(n, uint64(100*s+n), finite)
				g, a := bothKernels(t, func() result {
					f := filt.Clone()
					out := f.ApplyTo(make([]float64, n), x)
					return result{out, sectionStates(f)}
				})
				what := fmt.Sprintf("sections=%d n=%d finite=%v", s, n, finite)
				sameBits(t, "ApplyTo "+what, g.out, a.out)
				sameBits(t, "final state "+what, g.state, a.state)
			}
		}
	}
}

// sectionStates returns every section's state, z1 then z2, which is
// all the cascade carries into the next sample.
func sectionStates(f *IIRFilter) []float64 {
	var out []float64
	for _, s := range f.sections {
		out = append(out, s.z1, s.z2)
	}
	return out
}

// BenchmarkKernels times the kernels under each setting: a 32 768-point
// forward transform (the complex transform inside the GCC's
// 65 536-point real one), the served band-pass (order 5, 100-16 000 Hz,
// six sections) over one 1.1 s channel at 48 kHz, the unpack and
// repack of that 65 536-point real transform, and the served Welch
// estimate (2048-sample frames over one channel decimated to 16 kHz,
// window and periodogram included).
func BenchmarkKernels(b *testing.B) {
	z := benchComplex(32768)
	buf := make([]complex128, len(z))
	x := benchReal(52800)
	dst := make([]float64, len(x))
	bp, err := NewButterworthBandPass(5, 100, 16000, 48000)
	if err != nil {
		b.Fatal(err)
	}
	real65536 := Plan(65536)
	spec := benchComplex(32769)
	unpacked := make([]complex128, len(spec))
	var w PSDWorkspace
	var psd []float64
	for _, k := range kernelSettings() {
		b.Run("forward32768/"+k.name, func(b *testing.B) {
			setKernel(b, k.avx2)
			p := Plan(len(z))
			for i := 0; i < b.N; i++ {
				copy(buf, z)
				p.Forward(buf)
			}
		})
		b.Run("bandpass52800/"+k.name, func(b *testing.B) {
			setKernel(b, k.avx2)
			for i := 0; i < b.N; i++ {
				bp.ApplyTo(dst, x)
			}
		})
		b.Run("unpack65536/"+k.name, func(b *testing.B) {
			setKernel(b, k.avx2)
			for i := 0; i < b.N; i++ {
				copy(unpacked, spec)
				real65536.unpack(unpacked)
			}
		})
		b.Run("repack65536/"+k.name, func(b *testing.B) {
			setKernel(b, k.avx2)
			for i := 0; i < b.N; i++ {
				real65536.repack(buf, spec)
			}
		})
		b.Run("welch17600/"+k.name, func(b *testing.B) {
			setKernel(b, k.avx2)
			for i := 0; i < b.N; i++ {
				psd, _ = w.WelchPSD(psd, x[:17600], 2048)
			}
		})
	}
}
