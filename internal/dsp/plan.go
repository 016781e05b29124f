package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// FFTPlan holds everything precomputed for transforms of one size:
// twiddle tables (forward and conjugate), the bit-reversal permutation,
// real-transform unpack twiddles, and — for non-power-of-two sizes — a
// cached Bluestein chirp with its pre-transformed convolution kernel.
//
// Plans are immutable after construction and safe for concurrent use by
// any number of goroutines; mutable scratch lives in a sync.Pool. Get a
// plan from Plan(n), which caches one per size for the life of the
// process (a handful of sizes dominate: frame lengths and the GCC
// padding sizes).
type FFTPlan struct {
	n int

	// Radix-2 tables (power-of-two n only).
	perm []int32      // bit-reversal permutation
	twf  []complex128 // forward twiddles exp(-2πik/n), k < n/2
	twi  []complex128 // inverse twiddles (conjugates of twf)

	// Real-transform unpack twiddles exp(-2πik/n), k <= n/4 (even n).
	rtw  []complex128
	half *FFTPlan // size n/2 sub-plan driving RFFT/IRFFT (even n)

	bs *bluesteinPlan // non-power-of-two sizes

	pool *sync.Pool // scratch []complex128 (len scratchLen)
}

// bluesteinPlan caches the chirp-z machinery for one non-power-of-two
// size: the forward chirp, the forward transform of the convolution
// kernel b, and the power-of-two plan the convolution runs on.
type bluesteinPlan struct {
	m     int
	mp    *FFTPlan
	chirp []complex128 // exp(-iπ(i² mod 2n)/n)
	bhat  []complex128 // forward FFT of the symmetric kernel conj(chirp)
}

// planCache maps transform size -> *FFTPlan. Plans are only ever added,
// never mutated, so a sync.Map gives lock-free lookups on the hot path.
var planCache sync.Map

// Plan returns the (cached) plan for transforms of length n. It panics
// for n < 1; sizes are a structural property of the caller, not data.
func Plan(n int) *FFTPlan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: invalid FFT plan size %d", n))
	}
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan)
	}
	p := newPlan(n)
	if v, loaded := planCache.LoadOrStore(n, p); loaded {
		// Another goroutine built the same plan concurrently; both are
		// correct, keep the stored one.
		return v.(*FFTPlan)
	}
	return p
}

func newPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	if n == 1 {
		return p
	}
	scratchLen := n / 2
	if IsPow2(n) {
		shift := 64 - uint(bits.Len(uint(n-1)))
		p.perm = make([]int32, n)
		for i := 0; i < n; i++ {
			p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
		p.twf = make([]complex128, n/2)
		p.twi = make([]complex128, n/2)
		for k := range p.twf {
			ang := -2 * math.Pi * float64(k) / float64(n)
			s, c := math.Sincos(ang)
			p.twf[k] = complex(c, s)
			p.twi[k] = complex(c, -s)
		}
	} else {
		p.bs = newBluesteinPlan(n)
		if p.bs.m > scratchLen {
			scratchLen = p.bs.m
		}
	}
	if n%2 == 0 {
		p.half = Plan(n / 2)
		p.rtw = make([]complex128, n/4+1)
		for k := range p.rtw {
			ang := -2 * math.Pi * float64(k) / float64(n)
			s, c := math.Sincos(ang)
			p.rtw[k] = complex(c, s)
		}
	}
	size := scratchLen
	p.pool = &sync.Pool{New: func() any {
		buf := make([]complex128, size)
		return &buf
	}}
	return p
}

func newBluesteinPlan(n int) *bluesteinPlan {
	m := NextPow2(2*n - 1)
	bs := &bluesteinPlan{m: m, mp: Plan(m)}
	bs.chirp = make([]complex128, n)
	bs.bhat = make([]complex128, m)
	for i := 0; i < n; i++ {
		// Chirp phase: pi * i^2 / n, computed modulo 2n to avoid
		// precision loss for large i.
		idx := (int64(i) * int64(i)) % int64(2*n)
		ang := -math.Pi * float64(idx) / float64(n)
		s, c := math.Sincos(ang)
		bs.chirp[i] = complex(c, s)
		b := complex(c, -s)
		bs.bhat[i] = b
		if i > 0 {
			bs.bhat[m-i] = b
		}
	}
	bs.mp.radix2(bs.bhat, false)
	return bs
}

func (p *FFTPlan) getScratch() *[]complex128  { return p.pool.Get().(*[]complex128) }
func (p *FFTPlan) putScratch(s *[]complex128) { p.pool.Put(s) }

// Forward computes the DFT of x in place. len(x) must equal the plan
// size.
func (p *FFTPlan) Forward(x []complex128) {
	p.checkLen(len(x))
	if p.n <= 1 {
		return
	}
	if p.perm != nil {
		p.radix2(x, false)
		return
	}
	p.bluestein(x)
}

// Inverse computes the inverse DFT of x in place, including the 1/N
// normalization. len(x) must equal the plan size.
func (p *FFTPlan) Inverse(x []complex128) {
	p.checkLen(len(x))
	n := p.n
	if n <= 1 {
		return
	}
	scale := 1 / float64(n)
	if p.perm != nil {
		p.radix2(x, true)
		for i := range x {
			x[i] *= complex(scale, 0)
		}
		return
	}
	// Non-power-of-two inverse via the conjugation identity
	// IFFT(x) = conj(FFT(conj(x)))/N, reusing the cached forward chirp.
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	p.bluestein(x)
	for i := range x {
		x[i] = complex(real(x[i])*scale, -imag(x[i])*scale)
	}
}

func (p *FFTPlan) checkLen(got int) {
	if got != p.n {
		panic(fmt.Sprintf("dsp: FFTPlan size %d given slice of length %d", p.n, got))
	}
}

// radix2 is the unscaled iterative Cooley-Tukey transform over the
// plan's precomputed tables. Direct table lookups replace the running
// twiddle product of the old implementation, which accumulated one
// rounding error per butterfly across each stage.
func (p *FFTPlan) radix2(x []complex128, inverse bool) {
	n := p.n
	for i, pj := range p.perm {
		if j := int(pj); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.twf
	if inverse {
		tw = p.twi
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

// bluestein computes the forward DFT of x (any length) as a convolution
// against the cached pre-transformed kernel, using pooled scratch.
func (p *FFTPlan) bluestein(x []complex128) {
	bs := p.bs
	sp := p.getScratch()
	a := (*sp)[:bs.m]
	for i := 0; i < p.n; i++ {
		a[i] = x[i] * bs.chirp[i]
	}
	for i := p.n; i < bs.m; i++ {
		a[i] = 0
	}
	bs.mp.radix2(a, false)
	for i := range a {
		a[i] *= bs.bhat[i]
	}
	bs.mp.radix2(a, true)
	scale := complex(1/float64(bs.m), 0)
	for i := 0; i < p.n; i++ {
		x[i] = a[i] * scale * bs.chirp[i]
	}
	p.putScratch(sp)
}

// RFFT computes the DFT of the real signal x (len n) and writes the
// non-redundant half-spectrum — bins 0..n/2 inclusive — into dst,
// growing it if needed, and returns dst[:n/2+1]. dst must not alias x.
//
// For even n the signal is packed into an n/2-point complex transform
// (two real samples per complex slot) and unpacked with the plan's
// cached twiddles — about half the work of transforming zero-imaginary
// complex input. Odd (necessarily non-power-of-two) sizes fall back to
// the complex Bluestein path on pooled scratch.
func (p *FFTPlan) RFFT(dst []complex128, x []float64) []complex128 {
	p.checkLen(len(x))
	n := p.n
	bins := n/2 + 1
	if cap(dst) < bins {
		dst = make([]complex128, bins)
	}
	dst = dst[:bins]
	if n == 1 {
		dst[0] = complex(x[0], 0)
		return dst
	}
	if n%2 != 0 {
		sp := p.getScratch()
		c := (*sp)[:n]
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		p.bluestein(c)
		copy(dst, c[:bins])
		p.putScratch(sp)
		return dst
	}
	h := n / 2
	z := dst[:h]
	for i := 0; i < h; i++ {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	p.half.Forward(z)
	// Unpack: with E/O the even/odd-sample sub-spectra, Z[k] = E[k] +
	// i·O[k], so X[k] = E[k] + w·O[k] and X[n/2-k] = conj(E[k] - w·O[k])
	// with w = exp(-2πik/n). Done pairwise in place.
	re0, im0 := real(z[0]), imag(z[0])
	dst[h] = complex(re0-im0, 0)
	dst[0] = complex(re0+im0, 0)
	for k := 1; k <= h/2; k++ {
		zk := dst[k]
		zc := cmplx.Conj(dst[h-k])
		e := (zk + zc) * complex(0.5, 0)
		o := (zk - zc) * complex(0, -0.5)
		t := p.rtw[k] * o
		dst[k] = e + t
		dst[h-k] = cmplx.Conj(e - t)
	}
	return dst
}

// IRFFT inverts a half-spectrum (n/2+1 bins, as produced by RFFT) back
// to n real samples, writing into dst (grown if needed) and returning
// dst[:n]. The upper half of the spectrum is implied by conjugate
// symmetry; the imaginary parts of bins 0 and n/2, which are zero for
// any real signal's spectrum, are ignored. spec is not modified.
func (p *FFTPlan) IRFFT(dst []float64, spec []complex128) []float64 {
	n := p.n
	bins := n/2 + 1
	if len(spec) != bins {
		panic(fmt.Sprintf("dsp: IRFFT size %d wants %d bins, got %d", n, bins, len(spec)))
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 1 {
		dst[0] = real(spec[0])
		return dst
	}
	if n%2 != 0 {
		sp := p.getScratch()
		c := (*sp)[:n]
		copy(c, spec)
		for i := 1; i < bins; i++ {
			c[n-i] = cmplx.Conj(spec[i])
		}
		p.Inverse(c)
		for i := range dst {
			dst[i] = real(c[i])
		}
		p.putScratch(sp)
		return dst
	}
	h := n / 2
	sp := p.getScratch()
	z := (*sp)[:h]
	// Repack: E[k] = (X[k]+conj(X[n/2-k]))/2, w·O[k] =
	// (X[k]-conj(X[n/2-k]))/2, Z[k] = E[k] + i·O[k].
	e0, eh := real(spec[0]), real(spec[h])
	z[0] = complex((e0+eh)*0.5, (e0-eh)*0.5)
	for k := 1; k <= h/2; k++ {
		xk := spec[k]
		xc := cmplx.Conj(spec[h-k])
		e := (xk + xc) * complex(0.5, 0)
		d := (xk - xc) * complex(0.5, 0)
		o := d * cmplx.Conj(p.rtw[k])
		io := o * complex(0, 1)
		z[k] = e + io
		if k != h-k {
			z[h-k] = cmplx.Conj(e - io)
		}
	}
	p.half.Inverse(z)
	for k := 0; k < h; k++ {
		dst[2*k] = real(z[k])
		dst[2*k+1] = imag(z[k])
	}
	p.putScratch(sp)
	return dst
}

// --- package-level planned entry points ---

// RFFT computes the half-spectrum (len(x)/2+1 bins) of a real signal
// through the cached plan for its length, reusing dst when it has the
// capacity. Pass nil to allocate. See FFTPlan.RFFT.
func RFFT(dst []complex128, x []float64) []complex128 {
	if len(x) == 0 {
		return dst[:0]
	}
	return Plan(len(x)).RFFT(dst, x)
}

// IRFFT inverts a half-spectrum back to n real samples, reusing dst
// when it has the capacity. See FFTPlan.IRFFT.
func IRFFT(dst []float64, spec []complex128, n int) []float64 {
	if n == 0 {
		return dst[:0]
	}
	return Plan(n).IRFFT(dst, spec)
}

// HalfSpectrumInto is the dst-reusing variant of HalfSpectrum: it
// writes the n/2+1 non-redundant bins of x's spectrum into dst (grown
// if needed) and returns the sized slice.
func HalfSpectrumInto(dst []complex128, x []float64) []complex128 {
	return RFFT(dst, x)
}

// MagnitudeInto writes |spec[i]| into dst (grown if needed) and
// returns dst[:len(spec)] — the allocation-free variant of Magnitude.
func MagnitudeInto(dst []float64, spec []complex128) []float64 {
	if cap(dst) < len(spec) {
		dst = make([]float64, len(spec))
	}
	dst = dst[:len(spec)]
	for i, v := range spec {
		re, im := real(v), imag(v)
		dst[i] = sqrt(re*re + im*im)
	}
	return dst
}

// PowerInto writes |spec[i]|² into dst (grown if needed) and returns
// dst[:len(spec)] — the allocation-free variant of Power.
func PowerInto(dst []float64, spec []complex128) []float64 {
	if cap(dst) < len(spec) {
		dst = make([]float64, len(spec))
	}
	dst = dst[:len(spec)]
	for i, v := range spec {
		re, im := real(v), imag(v)
		dst[i] = re*re + im*im
	}
	return dst
}
