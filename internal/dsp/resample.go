package dsp

import (
	"fmt"
	"sync"
)

// Decimate low-pass filters x (windowed-sinc FIR at 0.45 of the target
// Nyquist) and keeps every factor-th sample. It is the fast path for
// integer-ratio downsampling such as 48 kHz -> 16 kHz (factor 3).
func Decimate(x []float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, fmt.Errorf("dsp: decimation factor %d must be >= 1", factor)
	}
	return DecimateInto(make([]float64, (len(x)+factor-1)/factor), x, factor)
}

// DecimateInto is Decimate writing into dst (grown if needed); it
// returns dst[:ceil(len(x)/factor)] and, with a large enough dst and a
// factor below 16, allocates nothing.
//
// Only the FIR outputs the decimation keeps are computed: output m is
// the filter at j = m*factor + delay (clamped to the last sample, which
// compensates the FIR group delay), summed over the taps in order and
// skipping taps that reach before the first sample — the same terms in
// the same order as filtering the whole signal and then picking every
// factor-th value, so the result is bit-identical.
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
	taps := decimationTaps(factor)
	delay := (len(taps) - 1) / 2
	for m := range dst {
		j := m*factor + delay
		if j >= len(x) {
			j = len(x) - 1
		}
		var acc float64
		if j >= len(taps)-1 {
			// Every tap lands inside the signal.
			seg := x[j-len(taps)+1 : j+1]
			for t, tap := range taps {
				acc += tap * seg[len(seg)-1-t]
			}
		} else {
			for t, tap := range taps[:j+1] {
				acc += tap * x[j-t]
			}
		}
		dst[m] = acc
	}
	return dst, nil
}

// decimTaps caches the anti-alias filter per small decimation factor:
// the taps depend only on the factor, and designing them allocates.
var decimTaps [16]struct {
	once sync.Once
	h    []float64
}

// decimationTaps returns the anti-alias FIR for factor: cutoff just
// below the new Nyquist frequency, in normalized units with fs = 1.
func decimationTaps(factor int) []float64 {
	design := func() []float64 { return FIRLowPass(8*factor+1, 0.45/float64(factor), 1.0) }
	if factor >= len(decimTaps) {
		return design()
	}
	e := &decimTaps[factor]
	e.once.Do(func() { e.h = design() })
	return e.h
}

// Resample converts x from sample rate from to sample rate to. Integer
// downsampling ratios use Decimate; all other ratios use band-limited
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
