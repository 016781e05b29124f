package srp

// The per-pair correlations Workspace.AllPairs is checked against: each
// pair transforms both of its channels, whitens its own cross-spectrum
// and reads its lags out of the whole inverse.

import (
	"fmt"
	"math/cmplx"

	"headtalk/internal/dsp"
)

// gccPHAT returns the PHAT-weighted cross-correlation of channels a and
// b at lags -maxLag..+maxLag (2*maxLag+1 values, lag 0 in the middle),
// whitened over the full band. A positive peak lag means a leads b
// (the source is closer to a).
func gccPHAT(a, b []float64, maxLag int) ([]float64, error) {
	return gccPHATBand(a, b, maxLag, 0, 0, 0)
}

// gccPHATBand computes GCC-PHAT with the whitened cross-spectrum
// restricted to [loHz, hiHz] at sample rate fs; fs == 0 disables the
// band limit. It whitens each pair's cross-spectrum itself and pads the
// channels by hand.
func gccPHATBand(a, b []float64, maxLag int, fs, loHz, hiHz float64) ([]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("srp: channel length mismatch %d != %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, fmt.Errorf("srp: empty channels")
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("srp: negative maxLag %d", maxLag)
	}
	n := len(a)
	m := dsp.NextPow2(2 * n)
	if err := lagFits(maxLag, m); err != nil {
		return nil, err
	}
	p := dsp.Plan(m)
	padded := make([]float64, m)
	copy(padded, a)
	fa := p.RFFT(nil, padded)
	copy(padded, b) // same length, so the zero tail is untouched
	fb := p.RFFT(nil, padded)

	loBin, hiBin := bandBins(m, fs, loHz, hiHz)
	// Cross-power spectrum with PHAT whitening: keep only phase, only
	// inside the analysis band (the upper half is implied by symmetry).
	cross := make([]complex128, m/2+1)
	var kept int
	for i := loBin; i <= hiBin; i++ {
		c := fa[i] * cmplx.Conj(fb[i])
		mag := cmplx.Abs(c)
		if mag <= phatEps {
			continue
		}
		cross[i] = c / complex(mag, 0)
		kept++
	}
	r := p.IRFFT(padded, cross)
	// Normalize so a perfectly coherent pair peaks at 1 regardless of
	// how many bins were retained.
	scale := 1.0
	if kept > 0 {
		scale = float64(m) / float64(2*kept)
	}
	return lagWindow(nil, r, maxLag, scale), nil
}

// lagWindow extracts lags -maxLag..+maxLag from the circular
// correlation r (length m), scaling each value, into dst (grown if
// needed).
func lagWindow(dst, r []float64, maxLag int, scale float64) []float64 {
	m := len(r)
	want := 2*maxLag + 1
	if cap(dst) < want {
		dst = make([]float64, want)
	}
	dst = dst[:want]
	for k := -maxLag; k <= maxLag; k++ {
		idx := k
		if idx < 0 {
			idx += m
		}
		dst[k+maxLag] = r[idx] * scale
	}
	return dst
}

// crossCorrPHATless returns the plain (unwhitened) cross-correlation at
// lags -maxLag..+maxLag using the same FFT path, normalized by the
// channel energies.
func crossCorrPHATless(a, b []float64, maxLag int) ([]float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return nil, fmt.Errorf("srp: invalid channels (len %d, %d)", len(a), len(b))
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("srp: negative maxLag %d", maxLag)
	}
	n := len(a)
	m := dsp.NextPow2(2 * n)
	if err := lagFits(maxLag, m); err != nil {
		return nil, err
	}
	p := dsp.Plan(m)
	padded := make([]float64, m)
	copy(padded, a)
	fa := p.RFFT(nil, padded)
	copy(padded, b)
	fb := p.RFFT(nil, padded)
	cross := make([]complex128, m/2+1)
	for i := range cross {
		cross[i] = fa[i] * cmplx.Conj(fb[i])
	}
	r := p.IRFFT(padded, cross)
	norm := dsp.RMS(a) * dsp.RMS(b) * float64(n)
	if norm == 0 {
		norm = 1
	}
	return lagWindow(nil, r, maxLag, 1/norm), nil
}
