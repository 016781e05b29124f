package dsp

import (
	"fmt"
	"slices"
	"sync"
)

// DecimateInto low-pass filters x (windowed-sinc FIR at 0.45 of the
// target Nyquist) and keeps every factor-th sample, writing into dst
// (grown if needed). It is the fast path for integer-ratio
// downsampling such as 48 kHz -> 16 kHz (factor 3). It returns
// dst[:ceil(len(x)/factor)] and, with a large enough dst and a factor
// below 16, allocates nothing.
//
// Only the FIR outputs the decimation keeps are computed: output m is
// the filter at j = m*factor + delay (clamped to the last sample, which
// compensates the FIR group delay), summed over the taps in order and
// skipping taps that reach before the first sample — the same terms in
// the same order as filtering the whole signal and then picking every
// factor-th value, so the result is bit-identical. Where four
// consecutive outputs have every tap inside the signal, one pass over
// the taps computes all four on independent accumulators.
func DecimateInto(dst, x []float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: decimation factor %d must be >= 1", factor)
	}
	n := (len(x) + factor - 1) / factor
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if factor == 1 {
		copy(dst, x)
		return dst, nil
	}
	rev := decimationTaps(factor)
	last := len(rev) - 1
	delay := last / 2
	for m := 0; m < n; {
		j := m*factor + delay
		if j >= last && m+4 <= n && j+3*factor < len(x) {
			dst[m], dst[m+1], dst[m+2], dst[m+3] = firQuad(x[j-last:j+3*factor+1], rev, factor)
			m += 4
			continue
		}
		if j >= len(x) {
			j = len(x) - 1
		}
		var acc float64
		for t := 0; t <= min(j, last); t++ {
			acc += rev[last-t] * x[j-t]
		}
		dst[m] = acc
		m++
	}
	return dst, nil
}

// firQuad returns the FIR outputs at samples l-1, l-1+factor,
// l-1+2·factor and l-1+3·factor of seg, with l = len(rev) and rev the
// taps in reverse, each summed over the taps in order.
func firQuad(seg, rev []float64, factor int) (a0, a1, a2, a3 float64) {
	l := len(rev)
	s0 := seg[:l]
	s1 := seg[factor:][:l]
	s2 := seg[2*factor:][:l]
	s3 := seg[3*factor:][:l]
	for i := l - 1; i >= 0; i-- {
		tap := rev[i]
		a0 += tap * s0[i]
		a1 += tap * s1[i]
		a2 += tap * s2[i]
		a3 += tap * s3[i]
	}
	return
}

// decimTaps caches the anti-alias filter per small decimation factor:
// the taps depend only on the factor, and designing them allocates.
var decimTaps [16]struct {
	once sync.Once
	rev  []float64
}

// decimationTaps returns the anti-alias FIR for factor, cutoff just
// below the new Nyquist frequency in normalized units with fs = 1,
// with its taps in reverse order: tap t at index len-1-t, beside the
// sample x[j-t] it multiplies in a window of x ending at j.
func decimationTaps(factor int) []float64 {
	design := func() []float64 {
		h := FIRLowPass(8*factor+1, 0.45/float64(factor), 1.0)
		slices.Reverse(h)
		return h
	}
	if factor >= len(decimTaps) {
		return design()
	}
	e := &decimTaps[factor]
	e.once.Do(func() { e.rev = design() })
	return e.rev
}

// Resample converts x from sample rate from to sample rate to. Integer
// downsampling ratios use DecimateInto; all other ratios use band-limited
// linear interpolation (adequate for the synthesis-side rate changes in
// this repo, where the source material is already band-limited).
func Resample(x []float64, from, to float64) ([]float64, error) {
	return ResampleInto(nil, x, from, to)
}

// ResampleInto is Resample writing into dst (grown if needed). Equal
// rates and integer downsampling ratios allocate nothing once dst is
// large enough; other ratios still allocate their anti-alias scratch.
func ResampleInto(dst, x []float64, from, to float64) ([]float64, error) {
	if from <= 0 || to <= 0 {
		return nil, fmt.Errorf("dsp: sample rates must be positive (from=%g to=%g)", from, to)
	}
	if from == to {
		if cap(dst) < len(x) {
			dst = make([]float64, len(x))
		}
		dst = dst[:len(x)]
		copy(dst, x)
		return dst, nil
	}
	if ratio := from / to; ratio == float64(int(ratio)) && ratio > 1 {
		return DecimateInto(dst, x, int(ratio))
	}
	src := x
	if to < from {
		// Downsampling by a non-integer ratio: anti-alias first.
		cutoff := 0.45 * to
		taps := FIRLowPass(65, cutoff, from)
		filtered := FIRFilter(x, taps)
		delay := (len(taps) - 1) / 2
		src = make([]float64, len(x))
		for i := range src {
			j := i + delay
			if j >= len(filtered) {
				j = len(filtered) - 1
			}
			src[i] = filtered[j]
		}
	}
	n := int(float64(len(src)) * to / from)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	step := from / to
	for i := range out {
		pos := float64(i) * step
		lo := int(pos)
		if lo >= len(src)-1 {
			out[i] = src[len(src)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = src[lo]*(1-frac) + src[lo+1]*frac
	}
	return out, nil
}
