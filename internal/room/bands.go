// Package room simulates sound propagation from an oriented speech
// source to a microphone array inside a reverberant shoebox room. It
// implements the physics that HeadTalk's two insights rest on:
//
//   - Insight 1 (paper §III-B2): the room impulse response changes with
//     speaker orientation — modeled with an image-source early
//     reflection pattern plus a diffuse late tail, so the
//     direct-to-reverberant ratio falls as the speaker turns away.
//   - Insight 2: high-frequency speech is directional while low
//     frequencies are omnidirectional — modeled with a frequency-banded
//     directivity pattern applied per propagation path.
//
// The simulator substitutes for the physical rooms, human speakers and
// loudspeakers of the paper's data collection (see DESIGN.md).
package room

import (
	"headtalk/internal/dsp"
)

// Band is a frequency band in Hz. The simulator decomposes source
// signals into bands and applies band-dependent directivity and wall
// absorption.
type Band struct {
	Lo, Hi float64
}

// Center returns the band's geometric center frequency.
func (b Band) Center() float64 {
	return sqrtf(b.Lo * b.Hi)
}

// DefaultBands returns the simulator's standard five-band
// decomposition. Edges follow the feature bands that matter to
// HeadTalk: the 100–500 Hz low band used for the HLBR features, the
// speech formant range, and the >4 kHz region where liveness and
// directivity cues live.
func DefaultBands() []Band {
	return []Band{
		{100, 500},
		{500, 1200},
		{1200, 2500},
		{2500, 5000},
		{5000, 16000},
	}
}

// SplitBands decomposes x into len(bands) signals via FFT-domain
// masking with raised-cosine transitions (10% of band width). Summing
// the outputs reconstructs the band-limited part of x. This is
// computed once per utterance and reused across every capture of it.
func SplitBands(x []float64, fs float64, bands []Band) [][]float64 {
	n := len(x)
	m := dsp.NextPow2(n)
	p := dsp.Plan(m)
	// Half-spectrum via the planned real transform of x zero-padded to
	// m; the masked upper half is implied by conjugate symmetry and
	// reconstructed by IRFFT.
	spec := p.RFFT(nil, x)
	half := m/2 + 1
	out := make([][]float64, len(bands))
	masked := make([]complex128, half)
	var full []float64
	for bi, b := range bands {
		for i := range masked {
			masked[i] = 0
		}
		loBin := dsp.FreqBin(b.Lo, m, fs)
		hiBin := dsp.FreqBin(b.Hi, m, fs)
		for i := 0; i < half; i++ {
			// Each edge's transition half-width is 10% of the edge
			// frequency, so the two bands sharing a boundary use the
			// same ramp and their cos^2/sin^2 weights sum to exactly 1.
			w := riseWeight(i, loBin, rampFor(loBin)) * (1 - riseWeight(i, hiBin, rampFor(hiBin)))
			if w == 0 {
				continue
			}
			masked[i] = spec[i] * complex(w, 0)
		}
		full = p.IRFFT(full, masked)
		sig := make([]float64, n)
		copy(sig, full)
		out[bi] = sig
	}
	return out
}

// rampFor returns the transition half-width in bins for a band edge.
func rampFor(edgeBin int) int {
	r := edgeBin / 10
	if r < 1 {
		r = 1
	}
	return r
}

// riseWeight is a sin^2 ramp from 0 to 1 centered at edge, spanning
// [edge-ramp, edge+ramp]. A band's mask is the product of a rising
// edge at its low boundary and a falling (1-rising) edge at its high
// boundary, so two adjacent bands' weights sum to 1 across the shared
// transition.
func riseWeight(i, edge, ramp int) float64 {
	t := (float64(i-edge) + float64(ramp)) / float64(2*ramp)
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	s := sinf(1.5707963267948966 * t)
	return s * s
}
