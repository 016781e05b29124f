// Package features assembles the classifier inputs described in the
// paper's §III-B3: speech-reverberation features (SRP-PHAT peaks, GCC
// windows and their statistics) and speech-directivity features (the
// high/low band ratio and 20-chunk low-band statistics).
package features

import "headtalk/internal/audio"

// Config controls orientation feature extraction.
type Config struct {
	// MaxLag is the GCC/SRP half-window in samples (±25/27/21 at
	// 48 kHz for D1/D2/D3).
	MaxLag int
	// SampleRate of the recordings.
	SampleRate float64
	// LowBandLo/LowBandHi bound the directivity low band (paper:
	// 100–400 Hz); HighBandLo/HighBandHi the high band (500–4000 Hz).
	LowBandLo, LowBandHi   float64
	HighBandLo, HighBandHi float64
	// LowBandChunks is the number of low-band sub-chunks (paper: 20).
	LowBandChunks int
	// GCCBandLo/GCCBandHi band-limit the whitened cross-spectrum used
	// for GCC/SRP (default 100–8000 Hz: the region where speech
	// actually carries energy).
	GCCBandLo, GCCBandHi float64
	// UsePHAT selects PHAT weighting (true, the paper's choice) or
	// plain cross-correlation (the ablation baseline).
	UsePHAT bool
	// DisableReverbFeatures / DisableDirectivityFeatures drop one
	// feature group for the feature-group ablation.
	DisableReverbFeatures      bool
	DisableDirectivityFeatures bool
	// GCCOnly reproduces the Ahuja et al. (DoV) baseline: per-pair GCC
	// windows + TDoA only, no SRP aggregation, no directivity features.
	GCCOnly bool
	// AnalysisWindow restricts feature computation to the
	// highest-energy window of this many samples (selected on the
	// channel mean, applied identically to every channel so
	// inter-channel delays are preserved). Zero selects 32768 samples
	// (~0.68 s at 48 kHz, covering a whole wake word — shorter windows
	// land on different phoneme mixes per utterance and roughly double
	// the cross-session error); negative disables windowing.
	AnalysisWindow int
}

// DefaultConfig returns the paper's feature configuration for a device
// lag window.
func DefaultConfig(maxLag int, sampleRate float64) Config {
	return Config{
		MaxLag:        maxLag,
		SampleRate:    sampleRate,
		LowBandLo:     100,
		LowBandHi:     400,
		HighBandLo:    500,
		HighBandHi:    4000,
		LowBandChunks: 20,
		GCCBandLo:     100,
		GCCBandHi:     8000,
		UsePHAT:       true,
	}
}

// Dim returns the length of the vector Extract assembles under c from
// a capture of the given channel count, following the layout on
// Extract. The caller keeps MaxLag and LowBandChunks small enough that
// the count cannot overflow.
func (c Config) Dim(channels int) int {
	pairs := channels * (channels - 1) / 2
	n := 0
	if !c.DisableReverbFeatures {
		n += pairs * (2*c.MaxLag + 2) // GCC window and TDoA per pair
		if !c.GCCOnly {
			n += pairs*5 + 3 + 5 // pair statistics, SRP peaks and statistics
		}
	}
	if !c.DisableDirectivityFeatures && !c.GCCOnly {
		chunks := c.LowBandChunks
		if chunks <= 0 {
			chunks = 20
		}
		n += 1 + 3*chunks // HLBR and the low-band chunk statistics
	}
	return n
}

// Extract computes the orientation feature vector from a multi-channel
// recording (already preprocessed/bandpassed). The vector layout for a
// 4-channel capture with maxLag=13 is:
//
//	6 pairs × 27 GCC values            = 162
//	6 pair TDoAs                       = 6
//	6 pairs × 5 GCC statistics         = 30
//	SRP top-3 peak values              = 3
//	5 SRP statistics                   = 5
//	HLBR                               = 1
//	20 low-band chunks × (mean,RMS,std)= 60
//
// for 267 features total (the paper's "6×27+6 = 168" reverberation
// core plus statistical summaries and directivity features).
//
// Extract allocates a fresh Workspace per call and returns a vector the
// caller owns; a serving worker keeps its own Workspace instead.
func Extract(rec *audio.Recording, cfg Config) ([]float64, error) {
	var ws Workspace
	return ws.Extract(rec, cfg)
}

// FocusBounds locates the highest-energy window of the requested length
// on the channel mean with a coarse 1024-sample hop (a stride-4 energy
// estimate per candidate start). It returns the window's start and
// length; the whole recording when it already fits or window is
// negative. window == 0 selects 32768 samples (Config.AnalysisWindow's
// default).
//
// Cropping every channel to these bounds anchors the analysis to the
// utterance rather than its silence or noise lead-in, bounds the GCC
// FFT sizes, and leaves inter-channel alignment untouched. *mono is the
// caller's channel-mean scratch, reused and grown in place, so a warm
// caller searches without allocating.
func FocusBounds(rec *audio.Recording, window int, mono *[]float64) (start, length int) {
	n := rec.Len()
	if window < 0 {
		return 0, n
	}
	if window == 0 {
		window = 32768
	}
	if n <= window {
		return 0, n
	}
	m := rec.MonoInto(*mono)
	*mono = m
	const hop = 1024
	bestStart, bestEnergy := 0, -1.0
	for start := 0; start+window <= n; start += hop {
		var acc float64
		for i := start; i < start+window; i += 4 { // stride-4 estimate
			acc += m[i] * m[i]
		}
		if acc > bestEnergy {
			bestEnergy = acc
			bestStart = start
		}
	}
	return bestStart, window
}
