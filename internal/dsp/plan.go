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
// Plans are safe for concurrent use by any number of goroutines; the
// radix-2 tables are built once, on the first complex transform of the
// size (sizes used only through RFFT/IRFFT never need them), and
// mutable scratch lives in a sync.Pool. Get a
// plan from Plan(n), which caches one per size for the life of the
// process (a handful of sizes dominate: frame lengths and the GCC
// padding sizes).
type FFTPlan struct {
	n int

	// Radix-2 tables (power-of-two n only), built by radix2Tables. The
	// twiddles of every butterfly stage sit end to end, n-1 entries per
	// direction: the stage of half-size h reads tw[h-1 : 2h-1], whose
	// entry j is exp(-2πi·j/(2h)) (conjugated for the inverse).
	tables sync.Once
	perm   []int32      // bit-reversal permutation
	twf    []complex128 // forward stage twiddles
	twi    []complex128 // inverse stage twiddles (conjugates of twf)

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
	if !IsPow2(n) {
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

// radix2Tables builds the bit-reversal permutation and both stage
// twiddle tables of a power-of-two plan, once.
func (p *FFTPlan) radix2Tables() { p.tables.Do(p.buildRadix2Tables) }

func (p *FFTPlan) buildRadix2Tables() {
	n := p.n
	shift := 64 - uint(bits.Len(uint(n-1)))
	p.perm = make([]int32, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	// The last stage reads exp(-2πik/n), k < n/2, at stride 1;
	// every earlier stage copies its entries from that table at
	// stride n/(2h), so each butterfly multiplies by exactly the
	// value the one shared table gave it.
	p.twf = make([]complex128, n-1)
	p.twi = make([]complex128, n-1)
	base := p.twf[n/2-1:]
	for k := range base {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang)
		base[k] = complex(c, s)
	}
	for h := 1; h < n/2; h <<= 1 {
		stride := n / (2 * h)
		for j := 0; j < h; j++ {
			p.twf[h-1+j] = base[j*stride]
		}
	}
	for i, w := range p.twf {
		p.twi[i] = complex(real(w), -imag(w))
	}
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
	if p.bs == nil {
		p.radix2(x, false)
		return
	}
	p.bluestein(x)
}

// Inverse computes the inverse DFT of x in place, including the 1/N
// normalization. len(x) must equal the plan size.
func (p *FFTPlan) Inverse(x []complex128) {
	p.checkLen(len(x))
	if p.n <= 1 {
		return
	}
	if p.bs == nil {
		p.radix2Tables()
		p.permute(x)
	}
	p.inverseOrdered(x)
}

// inverseOrdered is Inverse on x already in the order the plan's
// transform reads its input: bit-reversed for radix-2 sizes, natural
// for Bluestein sizes. Radix-2 callers have built the tables.
func (p *FFTPlan) inverseOrdered(x []complex128) {
	n := p.n
	if n <= 1 {
		return
	}
	scale := 1 / float64(n)
	if p.bs == nil {
		stages(x, p.twi, n/2)
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
// plan's precomputed tables: the bit-reversal permutation, then every
// decimation-in-time butterfly stage in order.
func (p *FFTPlan) radix2(x []complex128, inverse bool) {
	p.radix2Tables()
	p.permute(x)
	tw := p.twf
	if inverse {
		tw = p.twi
	}
	stages(x, tw, p.n/2)
}

// permute applies the plan's bit-reversal permutation to x in place.
func (p *FFTPlan) permute(x []complex128) {
	x = x[:len(p.perm)]
	for i, pj := range p.perm {
		if j := int(pj); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// stages runs the butterfly stages of half-size 1, 2, 4, …, last over
// the permuted x, in that order. Two consecutive stages share one pass
// over memory; when the count is odd the half-size-1 stage runs alone
// first. Each butterfly performs the same operations on the same
// operands as when every stage made its own pass, so the result is
// bit-identical to the one-stage-per-pass loop. The AVX2 kernels, when
// selected, run the lone stage on two index pairs per iteration.
func stages(x, tw []complex128, last int) {
	h := 1
	if bits.TrailingZeros(uint(last))%2 == 0 {
		w := tw[0]
		y := x
		if useAVX2 {
			n := len(x) &^ 3
			stage1AVX2(x[:n], w)
			y = x[n:]
		}
		for ; len(y) >= 2; y = y[2:] {
			a := y[0]
			t := y[1] * w
			y[0], y[1] = a+t, a-t
		}
		h = 2
	}
	for ; h < last; h *= 4 {
		stagePair(x, tw, h)
	}
}

// stagePair runs the stages of half-size h and 2h in one pass: each
// block of 4h elements is finished through both stages while its four
// operands per index sit in registers. The AVX2 kernels, when
// selected, run it on two indices per register (for h = 1, on the one
// index of two blocks); the Go loop finishes any block they leave.
func stagePair(x, tw []complex128, h int) {
	s := 0
	if useAVX2 {
		if h == 1 {
			s = len(x) &^ 7
			stagePair1AVX2(x[:s], tw[:3])
		} else {
			s = len(x) &^ (4*h - 1)
			stagePairAVX2(x[:s], tw[h-1:4*h-1], h)
		}
	}
	w1 := tw[h-1 : 2*h-1]
	w2 := tw[2*h-1 : 4*h-1]
	w2a, w2b := w2[:h], w2[h:2*h]
	for ; s+4*h <= len(x); s += 4 * h {
		blk := x[s : s+4*h]
		x0, x1, x2, x3 := blk[:h], blk[h:2*h], blk[2*h:3*h], blk[3*h:4*h]
		// Equal lengths let the compiler drop the inner loop's bounds
		// checks.
		x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
		w1, w2a, w2b := w1[:len(x0)], w2a[:len(x0)], w2b[:len(x0)]
		for j, a := range x0 {
			b, c, d := x1[j], x2[j], x3[j]
			w := w1[j]
			t := b * w
			a, b = a+t, a-t
			t = d * w
			c, d = c+t, c-t
			t = c * w2a[j]
			x0[j], x2[j] = a+t, a-t
			t = d * w2b[j]
			x1[j], x3[j] = b+t, b-t
		}
	}
}

// butterflies runs the butterflies between lo[j] and hi[j] with
// twiddle w[j], for every j < len(lo): the AVX2 kernel, when
// selected, takes the indices in pairs and the Go loop any odd one out.
func butterflies(lo, hi, w []complex128) {
	hi, w = hi[:len(lo)], w[:len(lo)]
	if useAVX2 {
		n := len(lo) &^ 1
		butterfliesAVX2(lo[:n], hi[:n], w[:n])
		lo, hi, w = lo[n:], hi[n:], w[n:]
	}
	for j, a := range lo {
		t := hi[j] * w[j]
		lo[j] = a + t
		hi[j] = a - t
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

// RFFT computes the DFT of the real signal x, zero-padded to the plan
// size n, and writes the non-redundant half-spectrum — bins 0..n/2
// inclusive — into dst, growing it if needed, and returns
// dst[:n/2+1]. len(x) may be anything up to n; the samples past its
// end read as zeros. dst must not alias x.
//
// For even n the signal is packed into an n/2-point complex transform
// (two real samples per complex slot) and unpacked with the plan's
// cached twiddles — about half the work of transforming zero-imaginary
// complex input. When that transform is radix-2 the pack writes its
// slots straight in bit-reversed order, so no permutation pass runs.
// Odd (necessarily non-power-of-two) sizes fall back to the complex
// Bluestein path on pooled scratch.
func (p *FFTPlan) RFFT(dst []complex128, x []float64) []complex128 {
	n := p.n
	if len(x) > n {
		panic(fmt.Sprintf("dsp: FFTPlan size %d given %d real samples", n, len(x)))
	}
	bins := n/2 + 1
	if cap(dst) < bins {
		dst = make([]complex128, bins)
	}
	dst = dst[:bins]
	if n == 1 {
		dst[0] = complex(sampleAt(x, 0), 0)
		return dst
	}
	if n%2 != 0 {
		sp := p.getScratch()
		c := (*sp)[:n]
		for i := range c {
			c[i] = complex(sampleAt(x, i), 0)
		}
		p.bluestein(c)
		copy(dst, c[:bins])
		p.putScratch(sp)
		return dst
	}
	h := n / 2
	z := dst[:h]
	if hp := p.half; hp.bs == nil && h > 1 {
		// The bit-reversal permutation is an involution, so slot i of
		// the permuted sequence holds pair perm[i].
		hp.radix2Tables()
		for i, j := range hp.perm {
			z[i] = pairAt(x, int(j))
		}
		stages(z, hp.twf, h/2)
	} else {
		for i := range z {
			z[i] = pairAt(x, i)
		}
		hp.Forward(z)
	}
	p.unpack(dst)
	return dst
}

// unpack turns dst[:h], h = n/2, holding the n/2-point transform Z of
// the sample pairs, into the half-spectrum dst[:h+1] of the real
// signal. With E/O the even/odd-sample sub-spectra, Z[k] = E[k] +
// i·O[k], so X[k] = E[k] + w·O[k] and X[n/2-k] = conj(E[k] - w·O[k])
// with w = exp(-2πik/n). Done pairwise in place; the AVX2 kernel, when
// selected, takes the bins below the middle two at a time, and the Go
// loop the odd one out and the middle bin k = h/2, whose partner is
// itself.
func (p *FFTPlan) unpack(dst []complex128) {
	h := p.n / 2
	re0, im0 := real(dst[0]), imag(dst[0])
	dst[h] = complex(re0-im0, 0)
	dst[0] = complex(re0+im0, 0)
	k := 1
	if useAVX2 {
		c := realPairs(h)
		unpackAVX2(dst[1:1+c], dst[h-c:h], p.rtw[1:1+c])
		k += c
	}
	for ; k <= h/2; k++ {
		zk := dst[k]
		zc := cmplx.Conj(dst[h-k])
		e := (zk + zc) * complex(0.5, 0)
		o := (zk - zc) * complex(0, -0.5)
		t := p.rtw[k] * o
		dst[k] = e + t
		dst[h-k] = cmplx.Conj(e - t)
	}
}

// realPairs returns how many bins k of 1..h/2-1, taken from 1 up in
// pairs, the AVX2 unpack and repack kernels run for a half size h.
func realPairs(h int) int { return (h/2 - 1) / 2 * 2 }

// sampleAt returns x[i], or +0 past the end of x.
func sampleAt(x []float64, i int) float64 {
	if i < len(x) {
		return x[i]
	}
	return 0
}

// pairAt returns the samples 2j and 2j+1 of x as one complex value,
// reading +0 past the end of x.
func pairAt(x []float64, j int) complex128 {
	k := 2 * j
	if k+1 < len(x) {
		return complex(x[k], x[k+1])
	}
	return complex(sampleAt(x, k), 0)
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
	p.repack(z, spec)
	p.half.inverseOrdered(z)
	for k := 0; k < h; k++ {
		dst[2*k] = real(z[k])
		dst[2*k+1] = imag(z[k])
	}
	p.putScratch(sp)
	return dst
}

// repack folds the half-spectrum spec of an even-length real signal
// into the n/2-point complex sequence Z whose inverse transform holds
// the even output samples in its real parts and the odd ones in its
// imaginary parts. It writes Z in the order the half plan's inverse
// reads it: Z[k] goes to z[perm[k]] for a radix-2 half plan (whose
// tables it builds), to z[k] otherwise.
func (p *FFTPlan) repack(z, spec []complex128) {
	h := p.n / 2
	var perm []int32
	if hp := p.half; hp.bs == nil && h > 1 {
		hp.radix2Tables()
		perm = hp.perm[:h]
	}
	// Repack: E[k] = (X[k]+conj(X[n/2-k]))/2, w·O[k] =
	// (X[k]-conj(X[n/2-k]))/2, Z[k] = E[k] + i·O[k].
	e0, eh := real(spec[0]), real(spec[h])
	z[0] = complex((e0+eh)*0.5, (e0-eh)*0.5)
	k := 1
	if useAVX2 && perm != nil {
		// The AVX2 kernel takes the bins below the middle two at a
		// time, as RFFT's unpack does.
		c := realPairs(h)
		repackAVX2(z, spec[1:1+c], spec[h-c:h], p.rtw[1:1+c], perm[1:1+c], perm[h-c:h])
		k += c
	}
	for ; k <= h/2; k++ {
		ik, ic := k, h-k
		if perm != nil {
			ik, ic = int(perm[k]), int(perm[h-k])
		}
		xk := spec[k]
		xc := cmplx.Conj(spec[h-k])
		e := (xk + xc) * complex(0.5, 0)
		d := (xk - xc) * complex(0.5, 0)
		o := d * cmplx.Conj(p.rtw[k])
		io := o * complex(0, 1)
		z[ik] = e + io
		if k != h-k {
			z[ic] = cmplx.Conj(e - io)
		}
	}
}

// IRFFTLags returns the lag window of the real sequence r =
// IRFFT(spec): dst[maxLag+k] = r[k mod n] for k = -maxLag..+maxLag,
// written into dst (grown if needed) and returned as
// dst[:2·maxLag+1]. The values are bit-identical to IRFFT's.
//
// A correlation read at a few lags needs only a few outputs of the
// n/2-point inverse: r[k] and r[n-k] live in z[k/2] and z[(n-k)/2],
// all within keep = maxLag/2+1 of either end of z. The early stages of
// the inverse, of half-size below 2·keep, run every butterfly; each
// later stage of half-size s runs, per block of 2s, only the
// butterflies j < keep and j >= s-keep that feed those ends, and only
// the kept outputs are scaled. When no stage is that large the whole
// inverse runs.
//
// scratch must hold n/2 values and is overwritten; nothing else is
// allocated. n must be even, 0 <= maxLag < n, and spec is not
// modified.
func (p *FFTPlan) IRFFTLags(dst []float64, spec []complex128, maxLag int, scratch []complex128) []float64 {
	n := p.n
	if n%2 != 0 || maxLag < 0 || maxLag >= n {
		panic(fmt.Sprintf("dsp: IRFFTLags size %d cannot window maxLag %d", n, maxLag))
	}
	if len(spec) != n/2+1 {
		panic(fmt.Sprintf("dsp: IRFFTLags size %d wants %d bins, got %d", n, n/2+1, len(spec)))
	}
	want := 2*maxLag + 1
	if cap(dst) < want {
		dst = make([]float64, want)
	}
	dst = dst[:want]
	h := n / 2
	z := scratch[:h]
	p.repack(z, spec)
	keep := maxLag/2 + 1
	if hp := p.half; hp.bs == nil && 4*keep <= h {
		full := 1 // the largest half-size below 2·keep
		for full < keep {
			full *= 2
		}
		stages(z, hp.twi, full)
		for s := 2 * full; s < h; s *= 2 {
			w := hp.twi[s-1 : 2*s-1]
			for b := 0; b < h; b += 2 * s {
				lo, hi := z[b:b+s], z[b+s:b+2*s]
				butterflies(lo[:keep], hi[:keep], w[:keep])
				butterflies(lo[s-keep:], hi[s-keep:], w[s-keep:])
			}
		}
		scale := 1 / float64(h)
		for k := 0; k < keep; k++ {
			z[k] *= complex(scale, 0)
			z[h-1-k] *= complex(scale, 0)
		}
	} else {
		p.half.inverseOrdered(z)
	}
	for i := range dst {
		idx := i - maxLag
		if idx < 0 {
			idx += n
		}
		if v := z[idx>>1]; idx&1 == 0 {
			dst[i] = real(v)
		} else {
			dst[i] = imag(v)
		}
	}
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

// MagnitudeInto writes |spec[i]| into dst (grown if needed) and
// returns dst[:len(spec)].
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
