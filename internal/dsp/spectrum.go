package dsp

import "fmt"

// BandEnergy returns the mean magnitude of the spectrum bins between lo
// and hi Hz (inclusive) for a half-spectrum of a length-n transform at
// sample rate fs. It returns 0 when the band contains no bins.
func BandEnergy(halfSpec []complex128, n int, fs, lo, hi float64) float64 {
	loBin := FreqBin(lo, n, fs)
	hiBin := FreqBin(hi, n, fs)
	if hiBin >= len(halfSpec) {
		hiBin = len(halfSpec) - 1
	}
	if loBin > hiBin {
		return 0
	}
	var acc float64
	for i := loBin; i <= hiBin; i++ {
		re, im := real(halfSpec[i]), imag(halfSpec[i])
		acc += hypot(re, im)
	}
	return acc / float64(hiBin-loBin+1)
}

func hypot(a, b float64) float64 {
	// math.Hypot is robust but slow; plain sqrt is fine for audio-scale
	// magnitudes.
	return sqrt(a*a + b*b)
}

// PSDWorkspace holds what WelchPSD reuses from call to call: the Hann
// window and its power for the last frame length, the windowed frame
// and its spectrum. A warm workspace estimates a PSD into a large
// enough dst without allocating. The zero value is ready to use; a
// PSDWorkspace must not be used from two goroutines at once.
type PSDWorkspace struct {
	win      []float64
	winPower float64
	scratch  []float64
	spec     []complex128
}

// WelchPSD estimates the power spectral density of x by averaging
// periodograms of Hann-windowed segments with 50% overlap. It writes
// the one-sided PSD (frameLen/2+1 bins) into dst (grown if needed) and
// returns dst[:frameLen/2+1]; x must be at least one frame long.
func (w *PSDWorkspace) WelchPSD(dst, x []float64, frameLen int) ([]float64, error) {
	if frameLen <= 0 {
		return nil, fmt.Errorf("dsp: invalid frame length %d", frameLen)
	}
	if len(x) < frameLen {
		return nil, fmt.Errorf("dsp: signal length %d < frame length %d", len(x), frameLen)
	}
	hop := frameLen / 2
	if hop == 0 {
		hop = 1
	}
	if len(w.win) != frameLen {
		w.win = Hann.Coefficients(frameLen)
		w.winPower = 0
		for _, v := range w.win {
			w.winPower += v * v
		}
		w.scratch = make([]float64, frameLen)
	}
	win, winPower, scratch := w.win, w.winPower, w.scratch
	bins := frameLen/2 + 1
	if cap(dst) < bins {
		dst = make([]float64, bins)
	}
	psd := dst[:bins]
	clear(psd)
	p := Plan(frameLen)
	var count int
	for start := 0; start+frameLen <= len(x); start += hop {
		windowFrame(scratch, x[start:start+frameLen], win)
		w.spec = p.RFFT(w.spec, scratch)
		accumulatePower(psd, w.spec, winPower)
		count++
	}
	for i := range psd {
		psd[i] /= float64(count)
	}
	return psd, nil
}

// windowFrame sets dst[i] = x[i]·win[i] for every i < len(dst): the
// AVX2 kernel, when selected, four at a time, and the Go loop the rest.
func windowFrame(dst, x, win []float64) {
	x, win = x[:len(dst)], win[:len(dst)]
	i := 0
	if useAVX2 {
		i = len(dst) &^ 3
		windowAVX2(dst[:i], x[:i], win[:i])
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] * win[i]
	}
}

// accumulatePower adds each bin's periodogram value |spec[i]|²/winPower
// to psd[i], for every i < len(psd): the AVX2 kernel, when selected,
// four at a time, and the Go loop the rest.
func accumulatePower(psd []float64, spec []complex128, winPower float64) {
	spec = spec[:len(psd)]
	i := 0
	if useAVX2 {
		i = len(psd) &^ 3
		periodogramAVX2(psd[:i], spec[:i], winPower)
	}
	for ; i < len(psd); i++ {
		re, im := real(spec[i]), imag(spec[i])
		// A division, not a multiply by 1/winPower: the two round
		// differently.
		psd[i] += (re*re + im*im) / winPower
	}
}
