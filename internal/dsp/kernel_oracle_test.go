package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"
	"testing"
)

// Differential oracles for the FFT, band-pass, decimation and Welch
// kernels: each reference below is the straightforward loop the kernel
// replaced, and the kernel must match it bit for bit.

// radix2Ref is the one-stage-per-pass radix-2 transform: the
// bit-reversal permutation, then each stage reading its twiddles at
// stride n/size from a single table exp(∓2πik/n), k < n/2.
func radix2Ref(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := range x {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
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

// IRFFTLags matches IRFFT followed by the lag window on every bit, on
// windows narrow enough to prune the late stages and on windows wide
// enough to fall back to the whole inverse.
func TestIRFFTLagsMatchesWindowedIRFFT(t *testing.T) {
	for _, m := range []int{4, 8, 2048, 65536} {
		h := m / 2
		p := Plan(m)
		scratch := make([]complex128, h)
		for _, sparse := range []bool{false, true} {
			spec := oracleComplex(h+1, uint64(m)+3, sparse)
			r := p.IRFFT(nil, spec)
			for _, maxLag := range []int{0, 1, 2, 13, 21, 27, h / 2, h - 1} {
				if maxLag >= m {
					continue
				}
				for i := range scratch {
					scratch[i] = complex(math.NaN(), math.NaN())
				}
				got := p.IRFFTLags(nil, spec, maxLag, scratch)
				sameBits(t, fmt.Sprintf("m=%d maxLag=%d sparse=%v", m, maxLag, sparse), windowRef(r, maxLag), got)
			}
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

// FuzzIIRApplyTo checks the two-sections-per-pass band-pass against
// the one-section-per-pass reference: every output sample, and the
// next Process output, which exposes any difference in final state.
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
		ref, got := filt.Clone(), filt.Clone()
		want := applyToRef(ref, make([]float64, len(x)), x)
		have := got.ApplyTo(make([]float64, len(x)), x)
		sameBits(t, "ApplyTo", want, have)
		for _, probe := range []float64{1, -0.25} {
			sameBits(t, "next Process", []float64{ref.Process(probe)}, []float64{got.Process(probe)})
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
	var w PSDWorkspace
	var dst []float64
	for i, c := range []struct{ n, frameLen int }{
		{52800, 2048}, {4096, 2048}, {52800, 2048}, {3000, 400}, {2048, 2048}, {9000, 512}, {60000, 2048},
	} {
		x := oracleSignal(nil, c.n, uint64(i+1))
		var err error
		dst, err = w.WelchPSD(dst, x, c.frameLen)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "WelchPSD", welchPSDRef(x, c.frameLen), dst)
		fresh, err := WelchPSD(x, c.frameLen)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "fresh WelchPSD", dst, fresh)
	}
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
