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
