package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand/v2"
	"sync"
	"testing"
)

// Differential oracles for the FFT, band-pass, decimation and Welch
// kernels: each reference below is the straightforward loop the kernel
// replaced, and the kernel must match it bit for bit. The FFT,
// band-pass and Welch oracles run once per kernel setting (see
// forEachKernel), so the AVX2 kernels answer to the same references as
// the Go loops.

// bitReverseRef permutes x, of power-of-two length, into bit-reversed
// order.
func bitReverseRef(x []complex128) {
	shift := 64 - uint(bits.Len(uint(len(x)-1)))
	for i := range x {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// radix2Ref is the one-stage-per-pass radix-2 transform: the
// bit-reversal permutation, then each stage reading its twiddles at
// stride n/size from a single table exp(∓2πik/n), k < n/2.
func radix2Ref(x []complex128, inverse bool) {
	n := len(x)
	bitReverseRef(x)
	tw := make([]complex128, n/2)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang)
		tw[k] = complex(c, s)
		if inverse {
			tw[k] = complex(c, -s)
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				even := x[k]
				odd := x[k+half] * tw[ti]
				x[k] = even + odd
				x[k+half] = even - odd
				ti += stride
			}
		}
	}
}

// applyToRef runs the cascade one section per pass over the signal.
func applyToRef(f *IIRFilter, dst, x []float64) []float64 {
	f.Reset()
	dst = dst[:len(x)]
	copy(dst, x)
	for i := range f.sections {
		s := &f.sections[i]
		b0, b1, b2 := s.B0, s.B1, s.B2
		a1, a2 := s.A1, s.A2
		z1, z2 := s.z1, s.z2
		for n, v := range dst {
			y := b0*v + z1
			z1 = b1*v - a1*y + z2
			z2 = b2*v - a2*y
			dst[n] = y
		}
		s.z1, s.z2 = z1, z2
	}
	return dst
}

// decimateRef filters the whole signal with the FIR and then keeps
// every factor-th output.
func decimateRef(x []float64, factor int) []float64 {
	if factor == 1 {
		return append([]float64{}, x...)
	}
	taps := FIRLowPass(8*factor+1, 0.45/float64(factor), 1.0)
	filtered := FIRFilter(x, taps)
	delay := (len(taps) - 1) / 2
	out := make([]float64, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		j := i + delay
		if j >= len(filtered) {
			j = len(filtered) - 1
		}
		out = append(out, filtered[j])
	}
	return out
}

// welchPSDRef is Welch's method with a fresh window and buffers.
func welchPSDRef(x []float64, frameLen int) []float64 {
	hop := frameLen / 2
	if hop == 0 {
		hop = 1
	}
	win := Hann.Coefficients(frameLen)
	var winPower float64
	for _, w := range win {
		winPower += w * w
	}
	psd := make([]float64, frameLen/2+1)
	scratch := make([]float64, frameLen)
	spec := make([]complex128, frameLen/2+1)
	var count int
	for start := 0; start+frameLen <= len(x); start += hop {
		for i := range scratch {
			scratch[i] = x[start+i] * win[i]
		}
		Plan(frameLen).RFFT(spec, scratch)
		for i, v := range spec {
			re, im := real(v), imag(v)
			psd[i] += (re*re + im*im) / winPower
		}
		count++
	}
	for i := range psd {
		psd[i] /= float64(count)
	}
	return psd
}

// oracleSignal builds a test signal: raw's bytes read as float64 bits
// when it holds at least one sample (so NaN, infinities and subnormals
// reach the kernels), otherwise n Gaussian samples from seed.
func oracleSignal(raw []byte, n int, seed uint64) []float64 {
	if len(raw) >= 8 {
		x := make([]float64, min(len(raw)/8, 4096))
		for i := range x {
			var b uint64
			for k := 0; k < 8; k++ {
				b |= uint64(raw[8*i+k]) << (8 * k)
			}
			x[i] = math.Float64frombits(b)
		}
		return x
	}
	rng := rand.New(rand.NewPCG(seed, 7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// sameBits requires identical float64 bits, except that any NaN
// matches any NaN: which operand's payload an operation propagates
// depends on operand order, which Go leaves to the compiler for
// commutative operators.
func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: sample %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameComplexBits is sameBits over the real and imaginary parts.
func sameComplexBits(t *testing.T, what string, want, got []complex128) {
	t.Helper()
	flat := func(z []complex128) []float64 {
		out := make([]float64, 0, 2*len(z))
		for _, v := range z {
			out = append(out, real(v), imag(v))
		}
		return out
	}
	sameBits(t, what, flat(want), flat(got))
}

// oracleComplex returns n Gaussian values from seed; sparse keeps only
// every seventh and leaves the rest signed zeros, so the kernels'
// handling of -0 is compared too.
func oracleComplex(n int, seed uint64, sparse bool) []complex128 {
	rng := rand.New(rand.NewPCG(seed, 11))
	z := make([]complex128, n)
	for i := range z {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		if sparse && i%7 != 0 {
			re, im = math.Copysign(0, re), math.Copysign(0, im)
		}
		z[i] = complex(re, im)
	}
	return z
}

// The fused two-stages-per-pass kernel matches the one-stage-per-pass
// loop on every bit, forward and inverse, at every power of two from 2
// to 2^17.
func TestRadix2MatchesReference(t *testing.T) {
	forEachKernel(t, testRadix2MatchesReference)
}

func testRadix2MatchesReference(t *testing.T) {
	for n := 2; n <= 1<<17; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			for _, sparse := range []bool{false, true} {
				x := oracleComplex(n, uint64(n), sparse)
				want := append([]complex128(nil), x...)
				radix2Ref(want, inverse)
				Plan(n).radix2(x, inverse)
				sameComplexBits(t, fmt.Sprintf("n=%d inverse=%v sparse=%v", n, inverse, sparse), want, x)
			}
		}
	}
}

// A plan used only through the real transforms never builds its own
// radix-2 tables: RFFT, IRFFT and IRFFTLags run on the half-size plan.
func TestRealTransformsLeaveComplexTablesUnbuilt(t *testing.T) {
	const n = 1 << 12
	p := newPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.01 * float64(i))
	}
	spec := p.RFFT(nil, x)
	p.IRFFT(nil, spec)
	p.IRFFTLags(nil, spec, 13, make([]complex128, n/2))
	if p.perm != nil || p.twf != nil || p.twi != nil {
		t.Fatalf("real transforms built the size-%d complex tables", n)
	}
	if p.half.perm == nil {
		t.Fatal("the half-size plan ran no complex transform")
	}
}

// Goroutines racing to make the first complex transform of a fresh plan
// build its tables once and all get the reference result.
func TestRadix2FirstUseConcurrent(t *testing.T) {
	forEachKernel(t, testRadix2FirstUseConcurrent)
}

func testRadix2FirstUseConcurrent(t *testing.T) {
	const n = 1 << 10
	in := oracleComplex(n, 5, false)
	want := append([]complex128(nil), in...)
	radix2Ref(want, false)
	p := newPlan(n)
	got := make([][]complex128, 4)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = append([]complex128(nil), in...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Forward(got[g])
		}()
	}
	wg.Wait()
	for g := range got {
		sameComplexBits(t, fmt.Sprintf("goroutine %d", g), want, got[g])
	}
}

// unpackTwiddlesRef returns exp(-2πik/n) for k <= n/4, computed as
// newPlan computes the real-transform twiddles.
func unpackTwiddlesRef(n int) []complex128 {
	rtw := make([]complex128, n/4+1)
	for k := range rtw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang)
		rtw[k] = complex(c, s)
	}
	return rtw
}

// rfftRef is the real transform of x zero-padded to the power of two
// n, computed the plain way: pack sample pairs in natural order, run
// radix2Ref (which permutes), unpack.
func rfftRef(x []float64, n int) []complex128 {
	padded := make([]float64, n)
	copy(padded, x)
	h := n / 2
	z := make([]complex128, h)
	for i := range z {
		z[i] = complex(padded[2*i], padded[2*i+1])
	}
	radix2Ref(z, false)
	rtw := unpackTwiddlesRef(n)
	dst := make([]complex128, h+1)
	copy(dst, z)
	re0, im0 := real(z[0]), imag(z[0])
	dst[h] = complex(re0-im0, 0)
	dst[0] = complex(re0+im0, 0)
	for k := 1; k <= h/2; k++ {
		zk := dst[k]
		zc := cmplx.Conj(dst[h-k])
		e := (zk + zc) * complex(0.5, 0)
		o := (zk - zc) * complex(0, -0.5)
		t := rtw[k] * o
		dst[k] = e + t
		dst[h-k] = cmplx.Conj(e - t)
	}
	return dst
}

// repackRef folds the half-spectrum of a length-n real signal into the
// n/2-point sequence of its inverse real transform, in natural order.
func repackRef(spec []complex128, n int) []complex128 {
	h := n / 2
	rtw := unpackTwiddlesRef(n)
	z := make([]complex128, h)
	e0, eh := real(spec[0]), real(spec[h])
	z[0] = complex((e0+eh)*0.5, (e0-eh)*0.5)
	for k := 1; k <= h/2; k++ {
		xk := spec[k]
		xc := cmplx.Conj(spec[h-k])
		e := (xk + xc) * complex(0.5, 0)
		d := (xk - xc) * complex(0.5, 0)
		o := d * cmplx.Conj(rtw[k])
		io := o * complex(0, 1)
		z[k] = e + io
		if k != h-k {
			z[h-k] = cmplx.Conj(e - io)
		}
	}
	return z
}

// irfftRef inverts the half-spectrum of a power-of-two length n the
// plain way: repack in natural order, run radix2Ref (which permutes),
// scale, interleave.
func irfftRef(spec []complex128, n int) []float64 {
	h := n / 2
	z := repackRef(spec, n)
	if h > 1 {
		radix2Ref(z, true)
		scale := 1 / float64(h)
		for i := range z {
			z[i] *= complex(scale, 0)
		}
	}
	out := make([]float64, n)
	for k, v := range z {
		out[2*k], out[2*k+1] = real(v), imag(v)
	}
	return out
}

// oracleReal returns n Gaussian samples from seed; sparse keeps only
// every fifth and leaves the rest signed zeros.
func oracleReal(n int, seed uint64, sparse bool) []float64 {
	rng := rand.New(rand.NewPCG(seed, 13))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if sparse && i%5 != 0 {
			x[i] = math.Copysign(0, x[i])
		}
	}
	return x
}

// RFFT, packing straight into bit-reversed order and reading a short
// input's missing tail as zeros, matches the natural-order pack through
// radix2Ref on every bit, at every power of two from 2 to 2^17. Short
// inputs at other sizes, odd ones included, match the same transform of
// the explicitly zero-padded input.
func TestRFFTMatchesReference(t *testing.T) {
	forEachKernel(t, testRFFTMatchesReference)
}

func testRFFTMatchesReference(t *testing.T) {
	for n := 2; n <= 1<<17; n <<= 1 {
		for _, sparse := range []bool{false, true} {
			x := oracleReal(n, uint64(n), sparse)
			for _, l := range []int{n, n - 1, n/2 + 1, n / 2, 1, 0} {
				got := Plan(n).RFFT(nil, x[:l])
				sameComplexBits(t, fmt.Sprintf("n=%d len=%d sparse=%v", n, l, sparse), rfftRef(x[:l], n), got)
			}
		}
	}
	for _, n := range []int{1, 3, 6, 337, 1000} {
		x := oracleReal(n, uint64(n), false)
		p := Plan(n)
		for _, l := range []int{n - 1, n / 2, 0} {
			padded := make([]float64, n)
			copy(padded, x[:l])
			sameComplexBits(t, fmt.Sprintf("n=%d len=%d", n, l), p.RFFT(nil, padded), p.RFFT(nil, x[:l]))
		}
	}
}

// bandSpectrum is a half-spectrum of bins values that is zero outside
// [lo, hi], as a band-limited GCC cross-spectrum is: +0 there, except
// for a -0 component on every 97th bin, which must not count as zero.
func bandSpectrum(bins, lo, hi int, seed uint64) []complex128 {
	spec := oracleComplex(bins, seed, false)
	for i := range spec {
		if i >= lo && i <= hi {
			continue
		}
		re, im := 0.0, 0.0
		if i%97 == 0 {
			re = math.Copysign(0, -1)
		}
		if i%97 == 48 {
			im = math.Copysign(0, -1)
		}
		spec[i] = complex(re, im)
	}
	return spec
}

// windowRef reads lags -maxLag..+maxLag out of a circular sequence.
func windowRef(r []float64, maxLag int) []float64 {
	out := make([]float64, 2*maxLag+1)
	for k := -maxLag; k <= maxLag; k++ {
		idx := k
		if idx < 0 {
			idx += len(r)
		}
		out[k+maxLag] = r[idx]
	}
	return out
}

// repack, IRFFT, and IRFFTLags on windows narrow enough to prune the late
// stages and on windows wide enough to fall back to the whole inverse,
// match the natural-order repack (bit-reversed, for repack itself)
// through radix2Ref on every bit. The
// spectra are dense, signed-zero sparse, and zero outside the GCC
// bands of the orientation features (100-8000 Hz) and the stream
// signature (300-4000 Hz) at 48 kHz and m = 65 536, or zero
// everywhere, as the cross-spectrum of an empty band is.
func TestIRFFTLagsMatchesWindowedIRFFT(t *testing.T) {
	forEachKernel(t, testIRFFTLagsMatchesWindowedIRFFT)
}

func testIRFFTLagsMatchesWindowedIRFFT(t *testing.T) {
	type input struct {
		name string
		m    int
		spec []complex128
	}
	var inputs []input
	for _, m := range []int{4, 8, 2048, 65536} {
		for _, sparse := range []bool{false, true} {
			inputs = append(inputs, input{fmt.Sprintf("sparse=%v", sparse), m, oracleComplex(m/2+1, uint64(m)+3, sparse)})
		}
	}
	for _, band := range [][2]int{{137, 10923}, {410, 5461}} {
		inputs = append(inputs, input{fmt.Sprintf("band=%v", band), 65536, bandSpectrum(32769, band[0], band[1], uint64(band[0]))})
	}
	// An empty band: every output is a signed zero.
	inputs = append(inputs, input{"zero", 2048, make([]complex128, 1025)})
	for _, in := range inputs {
		m, h := in.m, in.m/2
		p := Plan(m)
		scratch := make([]complex128, h)
		want := repackRef(in.spec, m)
		bitReverseRef(want)
		p.repack(scratch, in.spec)
		sameComplexBits(t, fmt.Sprintf("repack m=%d %s", m, in.name), want, scratch)
		r := irfftRef(in.spec, m)
		sameBits(t, fmt.Sprintf("IRFFT m=%d %s", m, in.name), r, p.IRFFT(nil, in.spec))
		for _, maxLag := range []int{0, 1, 2, 13, 16, 21, 27, h / 2, h - 1} {
			if maxLag >= m {
				continue
			}
			for i := range scratch {
				scratch[i] = complex(math.NaN(), math.NaN())
			}
			got := p.IRFFTLags(nil, in.spec, maxLag, scratch)
			sameBits(t, fmt.Sprintf("m=%d maxLag=%d %s", m, maxLag, in.name), windowRef(r, maxLag), got)
		}
	}
}

// oracleFilter designs a high-pass (kind 0), low-pass (1) or band-pass
// (2) Butterworth of order 1-8 at 48 kHz, with cutoffs taken from the
// fractional parts of lo and hi.
func oracleFilter(kind, order uint8, lo, hi float64) (*IIRFilter, bool) {
	const fs = 48000.0
	frac := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0.5
		}
		_, f := math.Modf(math.Abs(v))
		return f
	}
	fLo := 20 + frac(lo)*11000
	fHi := fLo + 50 + frac(hi)*(fs/2-fLo-100)
	ord := int(order%8) + 1
	var f *IIRFilter
	var err error
	switch kind % 3 {
	case 0:
		f, err = NewButterworthHighPass(ord, fLo, fs)
	case 1:
		f, err = NewButterworthLowPass(ord, fHi, fs)
	default:
		f, err = NewButterworthBandPass(ord, fLo, fHi, fs)
	}
	return f, err == nil
}

// FuzzIIRApplyTo checks the band-pass, under every kernel setting,
// against the one-section-per-pass reference: every output sample, and
// the final section states.
func FuzzIIRApplyTo(f *testing.F) {
	f.Add(uint8(2), uint8(4), uint16(4096), uint64(1), 0.1, 0.3, []byte(nil))
	f.Add(uint8(0), uint8(0), uint16(1), uint64(2), 0.9, 0.1, []byte(nil))
	f.Add(uint8(1), uint8(7), uint16(0), uint64(3), 0.5, 0.5, []byte(nil))
	f.Add(uint8(2), uint8(2), uint16(2), uint64(4), 0.01, 0.99, []byte(nil))
	f.Add(uint8(2), uint8(5), uint16(0), uint64(5), 0.2, 0.7,
		[]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, kind, order uint8, n uint16, seed uint64, lo, hi float64, raw []byte) {
		filt, ok := oracleFilter(kind, order, lo, hi)
		if !ok {
			return
		}
		x := oracleSignal(raw, int(n)%4097, seed)
		for _, k := range kernelSettings() {
			setKernel(t, k.avx2)
			ref, got := filt.Clone(), filt.Clone()
			want := applyToRef(ref, make([]float64, len(x)), x)
			have := got.ApplyTo(make([]float64, len(x)), x)
			sameBits(t, "ApplyTo "+k.name, want, have)
			sameBits(t, "final state "+k.name, sectionStates(ref), sectionStates(got))
		}
	})
}

// FuzzDecimate checks the kept-outputs-only decimator against full FIR
// filtering followed by picking every factor-th sample.
func FuzzDecimate(f *testing.F) {
	f.Add(uint8(3), uint16(4096), uint64(1), []byte(nil))
	f.Add(uint8(2), uint16(1), uint64(2), []byte(nil))
	f.Add(uint8(6), uint16(13), uint64(3), []byte(nil))
	f.Add(uint8(1), uint16(0), uint64(4), []byte(nil))
	f.Add(uint8(4), uint16(0), uint64(5), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, factor uint8, n uint16, seed uint64, raw []byte) {
		fac := int(factor%6) + 1
		x := oracleSignal(raw, int(n)%4097, seed)
		want := decimateRef(x, fac)
		got, err := DecimateInto(nil, x, fac)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "DecimateInto", want, got)
		// A reused, oversized destination must give the same samples.
		dst := make([]float64, len(x)+7)
		for i := range dst {
			dst[i] = math.NaN()
		}
		into, err := DecimateInto(dst, x, fac)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "DecimateInto", want, into)
	})
}

// A PSDWorkspace reused across signals of different lengths and frame
// lengths returns exactly what a fresh estimate does.
func TestPSDWorkspaceReuseMatchesReference(t *testing.T) {
	forEachKernel(t, testPSDWorkspaceReuseMatchesReference)
}

func testPSDWorkspaceReuseMatchesReference(t *testing.T) {
	var w PSDWorkspace
	var dst []float64
	for i, c := range []struct{ n, frameLen int }{
		{52800, 2048}, {4096, 2048}, {52800, 2048}, {3000, 400}, {2048, 2048}, {9000, 512}, {60000, 2048},
	} {
		// Gaussian samples, then the edge values: signed zeros and
		// subnormals, then infinities and NaN too.
		for j, x := range [][]float64{
			oracleSignal(nil, c.n, uint64(i+1)),
			edgeSignal(c.n, uint64(i+1), true),
			edgeSignal(c.n, uint64(i+1), false),
		} {
			what := fmt.Sprintf("n=%d frameLen=%d signal=%d", c.n, c.frameLen, j)
			var err error
			dst, err = w.WelchPSD(dst, x, c.frameLen)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "WelchPSD "+what, welchPSDRef(x, c.frameLen), dst)
			fresh, err := welchPSD(x, c.frameLen)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "fresh WelchPSD "+what, dst, fresh)
		}
	}
}

// FuzzRealTransformKernels runs the real transforms on a power-of-two
// length n from 4 to 2^16 under every kernel setting and requires the
// Go loops' bits from each: RFFT of raw's samples cut pad short of n
// (the rest read as zeros), IRFFT and IRFFTLags of a half-spectrum
// read from raw, and WelchPSD of raw's samples in frames of n/4.
// Samples are raw's bytes read as float64 bits, repeated to the length
// needed, so NaN, infinities, subnormals and signed zeros all reach
// the kernels.
func FuzzRealTransformKernels(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(1), []byte(nil))
	f.Add(uint8(6), uint16(3), uint16(27), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(9), uint16(700), uint16(13), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0xff, 9, 8, 7, 6, 5, 4, 0xe0, 0x3f})
	f.Add(uint8(14), uint16(65535), uint16(600), []byte{0x18, 0x2d, 0x44, 0x54, 0xfb, 0x21, 0x09, 0x40})
	f.Fuzz(func(t *testing.T, logN uint8, pad, maxLag uint16, raw []byte) {
		n := 4 << (logN % 15)
		samples := oracleSignal(raw, n, uint64(len(raw)))
		cycle := func(l int) []float64 {
			x := make([]float64, l)
			for i := range x {
				x[i] = samples[i%len(samples)]
			}
			return x
		}
		x := cycle(n - int(pad)%n)
		halfSpec := cycle(n + 2)
		spec := make([]complex128, n/2+1)
		for i := range spec {
			spec[i] = complex(halfSpec[2*i], halfSpec[2*i+1])
		}
		lag := int(maxLag) % n
		p := Plan(n)
		type result struct {
			rfft             []complex128
			irfft, lags, psd []float64
		}
		run := func() result {
			var w PSDWorkspace
			psd, err := w.WelchPSD(nil, cycle(n), n/4)
			if err != nil {
				t.Fatal(err)
			}
			return result{
				rfft:  p.RFFT(nil, x),
				irfft: p.IRFFT(nil, spec),
				lags:  p.IRFFTLags(nil, spec, lag, make([]complex128, n/2)),
				psd:   psd,
			}
		}
		setKernel(t, false)
		want := run()
		for _, k := range kernelSettings()[1:] {
			setKernel(t, k.avx2)
			got := run()
			what := fmt.Sprintf("%s n=%d", k.name, n)
			sameComplexBits(t, "RFFT "+what, want.rfft, got.rfft)
			sameBits(t, "IRFFT "+what, want.irfft, got.irfft)
			sameBits(t, fmt.Sprintf("IRFFTLags maxLag=%d %s", lag, what), want.lags, got.lags)
			sameBits(t, "WelchPSD "+what, want.psd, got.psd)
		}
	})
}

func TestPSDWorkspaceAllocFree(t *testing.T) {
	x := oracleSignal(nil, 52800, 9)
	var w PSDWorkspace
	dst, _ := w.WelchPSD(nil, x, 2048)
	if allocs := testing.AllocsPerRun(5, func() { dst, _ = w.WelchPSD(dst, x, 2048) }); allocs != 0 {
		t.Fatalf("warm WelchPSD allocated %.1f times, want 0", allocs)
	}
	out := make([]float64, len(x)/3+1)
	if allocs := testing.AllocsPerRun(5, func() { out, _ = DecimateInto(out, x, 3) }); allocs != 0 {
		t.Fatalf("warm DecimateInto allocated %.1f times, want 0", allocs)
	}
}
