// Package srp implements Generalized Cross-Correlation with Phase
// Transform (GCC-PHAT, Knapp & Carter [40]) and Steered Response Power
// with Phase Transform (SRP-PHAT, DiBiase [23]) — the time-delay
// machinery behind HeadTalk's speaker-orientation features (paper
// §III-B3).
package srp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"headtalk/internal/dsp"
)

// ErrLagWindow reports a lag window wider than the circular
// correlation it is read from: MaxLag must stay below the padded
// transform length m = NextPow2(2·len(channel)).
var ErrLagWindow = errors.New("srp: lag window does not fit the correlation")

// lagFits checks that lags -maxLag..+maxLag (maxLag >= 0) index an
// m-point circular correlation.
func lagFits(maxLag, m int) error {
	if maxLag >= m {
		return fmt.Errorf("%w: maxLag %d, %d-point correlation", ErrLagWindow, maxLag, m)
	}
	return nil
}

// phatEps is the magnitude floor below which a bin is dropped from the
// whitened cross-spectrum instead of being blown up to unit magnitude.
const phatEps = 1e-12

// GCCPHAT returns the PHAT-weighted cross-correlation of channels a and
// b at lags -maxLag..+maxLag (2*maxLag+1 values, lag 0 in the middle).
// A positive peak lag means a leads b (the source is closer to a).
// The cross-spectrum is whitened over the full band; see GCCPHATBand
// for the band-limited variant used by the feature extractor.
func GCCPHAT(a, b []float64, maxLag int) ([]float64, error) {
	return GCCPHATBand(a, b, maxLag, 0, 0, 0)
}

// GCCPHATBand computes GCC-PHAT with the whitened cross-spectrum
// restricted to [loHz, hiHz] at sample rate fs. PHAT weighting makes
// every retained bin count equally, so excluding bins where speech has
// no energy (above ~8 kHz the utterance is noise-dominated) sharpens
// the coherent peak considerably. Passing fs == 0 disables the band
// limit.
//
// Both channels are transformed with the planned real FFT (half the
// work of the old pad-to-complex path) and the correlation comes back
// through the packed inverse real transform; the conjugate-symmetric
// upper half of the cross-spectrum is never materialized.
func GCCPHATBand(a, b []float64, maxLag int, fs, loHz, hiHz float64) ([]float64, error) {
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

// bandBins converts a [loHz, hiHz] band at sample rate fs into
// inclusive half-spectrum bin bounds for a length-m transform; fs == 0
// (or an empty band) selects the full half-spectrum.
func bandBins(m int, fs, loHz, hiHz float64) (int, int) {
	loBin, hiBin := 0, m/2
	if fs > 0 && hiHz > loHz {
		loBin = dsp.FreqBin(loHz, m, fs)
		hiBin = dsp.FreqBin(hiHz, m, fs)
		if hiBin > m/2 {
			hiBin = m / 2
		}
	}
	return loBin, hiBin
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

// CrossCorrPHATless returns the plain (unwhitened) cross-correlation at
// lags -maxLag..+maxLag using the same FFT path, normalized by the
// channel energies. Used by the PHAT-weighting ablation.
func CrossCorrPHATless(a, b []float64, maxLag int) ([]float64, error) {
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

// PairGCC is the GCC of one microphone pair plus its TDoA estimate.
type PairGCC struct {
	I, J int       // channel indices
	R    []float64 // GCC at lags -maxLag..+maxLag
	TDoA int       // argmax lag in samples (positive: I leads J)
}

// PairOptions configures AllPairs.
type PairOptions struct {
	// MaxLag is the correlation half-window in samples.
	MaxLag int
	// PHAT selects phase-transform whitening (the paper's choice);
	// false computes plain cross-correlation (the ablation baseline).
	PHAT bool
	// SampleRate with BandLo/BandHi band-limits the whitened
	// cross-spectrum; SampleRate == 0 disables the limit.
	SampleRate     float64
	BandLo, BandHi float64
}

// AllPairs computes GCCs for every unordered channel pair of a
// multi-channel capture (C(n,2) pairs, e.g. 6 for a 4-mic array).
//
// Each channel is transformed — and, for PHAT, phase-normalized — once
// and the result shared across every pair it joins, so a C-channel
// capture costs C forward FFTs plus one inverse per pair instead of the
// 2·C(C,2) forward transforms of the per-pair path. It runs on a fresh
// Workspace, so the returned pairs are the caller's own; serving paths
// keep a Workspace and call its AllPairs instead.
func AllPairs(channels [][]float64, opt PairOptions) ([]PairGCC, error) {
	var ws Workspace
	return ws.AllPairs(channels, opt)
}

// SelectedPairs recomputes the GCC pair set over a subset of surviving
// channels — the degraded-array path: when per-channel health marks
// elements dead or stuck, only pairs between trusted channels are
// worth correlating (one bad channel poisons every pair it joins).
// PairGCC.I/J keep the ORIGINAL channel indices so TDoAs stay
// attributable to physical microphones. The subset must list at least
// two distinct in-range indices; anything else is a typed error so
// the caller can fail closed rather than steer on a garbage pair set.
// Like AllPairs it runs on a fresh Workspace.
func SelectedPairs(channels [][]float64, subset []int, opt PairOptions) ([]PairGCC, error) {
	var ws Workspace
	return ws.SelectedPairs(channels, subset, opt)
}

// whitenSpectrum normalizes every bin to unit magnitude in place,
// zeroing bins below the phatEps floor.
func whitenSpectrum(spec []complex128) {
	for i, v := range spec {
		re, im := real(v), imag(v)
		mag := math.Sqrt(re*re + im*im)
		if mag <= phatEps {
			spec[i] = 0
			continue
		}
		spec[i] = complex(re/mag, im/mag)
	}
}

// SRP sums the pair GCCs lag-wise: the paper's "weighted SRP" curve
// (Eq. 6, Fig. 6b). All pairs must share the same lag window.
func SRP(pairs []PairGCC) []float64 {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]float64, len(pairs[0].R))
	for _, p := range pairs {
		for i, v := range p.R {
			out[i] += v
		}
	}
	return out
}
