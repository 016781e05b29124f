package features

import (
	"fmt"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/srp"
)

// Workspace owns every scratch buffer orientation feature extraction
// needs — the focus-window headers, the GCC/SRP workspace, the
// directivity spectra and the feature vectors themselves — so a warm
// workspace extracts with zero steady-state allocation. Results alias
// workspace memory and are valid until the next call; a Workspace is
// not safe for concurrent use (one per serving worker).
type Workspace struct {
	srpWS srp.Workspace

	// Focus-window channel headers: subslices of the input channels
	// (no samples are copied).
	focus [][]float64

	mono   []float64
	scaled []float64
	spec   []complex128
	mag    []float64
	peaks  []dsp.Peak

	vec []float64
}

// Extract computes the orientation feature vector (layout on the
// package-level Extract) entirely on workspace scratch: the capture's
// focus window is located first (channel headers only, no samples
// move), then its GCC pair set is computed over the window and the
// feature vector assembled. The returned vector is valid until the
// next call on the same workspace.
func (ws *Workspace) Extract(rec *audio.Recording, cfg Config) ([]float64, error) {
	if cfg.MaxLag <= 0 {
		return nil, fmt.Errorf("features: MaxLag must be positive, got %d", cfg.MaxLag)
	}
	if len(rec.Channels) < 2 {
		return nil, fmt.Errorf("features: need >= 2 channels, have %d", len(rec.Channels))
	}

	start, length := FocusBounds(rec, cfg.AnalysisWindow, &ws.mono)
	focus := ws.focus[:0]
	for _, ch := range rec.Channels {
		focus = append(focus, ch[start:start+length])
	}
	ws.focus = focus

	var pairs []srp.PairGCC
	if !cfg.DisableReverbFeatures {
		var err error
		pairs, err = ws.srpWS.AllPairs(focus, srp.PairOptions{
			MaxLag:     cfg.MaxLag,
			PHAT:       cfg.UsePHAT,
			SampleRate: cfg.SampleRate,
			BandLo:     cfg.GCCBandLo,
			BandHi:     cfg.GCCBandHi,
		})
		if err != nil {
			return nil, fmt.Errorf("features: computing GCCs: %w", err)
		}
	}

	vec, err := ws.assemble(ws.vec[:0], rec.SampleRate, focus, pairs, cfg)
	if err != nil {
		return nil, err
	}
	ws.vec = vec
	return vec, nil
}

// assemble appends one capture's feature vector to buf: the
// reverberation group (pair GCC windows, TDoAs, statistics, SRP peaks
// and statistics) followed by the directivity group (HLBR and the
// low-band chunk statistics).
func (ws *Workspace) assemble(buf []float64, sampleRate float64, channels [][]float64, pairs []srp.PairGCC, cfg Config) ([]float64, error) {
	startLen := len(buf)

	if !cfg.DisableReverbFeatures {
		for _, p := range pairs {
			buf = append(buf, p.R...)
			buf = append(buf, float64(p.TDoA))
		}
		if !cfg.GCCOnly {
			for _, p := range pairs {
				buf = appendStats(buf, p.R)
			}
			curve := ws.srpWS.SRP(pairs)
			ws.peaks = dsp.TopPeaksInto(ws.peaks, curve, 3)
			for i := 0; i < 3; i++ {
				if i < len(ws.peaks) {
					buf = append(buf, ws.peaks[i].Value)
				} else {
					buf = append(buf, 0)
				}
			}
			buf = appendStats(buf, curve)
		}
	}

	if !cfg.DisableDirectivityFeatures && !cfg.GCCOnly {
		buf = ws.appendDirectivity(buf, sampleRate, channels, cfg)
	}

	if len(buf) == startLen {
		return nil, fmt.Errorf("features: all feature groups disabled")
	}
	return buf, nil
}

// appendStats appends the paper's five curve statistics — kurtosis,
// skewness, maximum, mean absolute deviation, standard deviation.
func appendStats(buf, x []float64) []float64 {
	return append(buf, dsp.Kurtosis(x), dsp.Skewness(x), dsp.Max(x), dsp.MAD(x), dsp.Std(x))
}

// appendDirectivity appends HLBR and the low-band chunk statistics,
// computed from the unit-RMS-normalized channel mean (§IV-B12: the
// features must describe spectral shape, not absolute loudness).
func (ws *Workspace) appendDirectivity(buf []float64, sampleRate float64, channels [][]float64, cfg Config) []float64 {
	hdr := audio.Recording{SampleRate: sampleRate, Channels: channels}
	mono := hdr.MonoInto(ws.mono)
	ws.mono = mono
	if r := dsp.RMS(mono); r > 0 {
		if cap(ws.scaled) < len(mono) {
			ws.scaled = make([]float64, len(mono))
		}
		scaled := ws.scaled[:len(mono)]
		for i, v := range mono {
			scaled[i] = v / r
		}
		mono = scaled
	}
	n := len(mono)
	spec := dsp.RFFT(ws.spec, mono)
	ws.spec = spec
	fs := cfg.SampleRate
	if fs == 0 {
		fs = sampleRate
	}

	low := dsp.BandEnergy(spec, n, fs, cfg.LowBandLo, cfg.LowBandHi)
	high := dsp.BandEnergy(spec, n, fs, cfg.HighBandLo, cfg.HighBandHi)
	hlbr := 0.0
	if low > 0 {
		hlbr = high / low
	}
	buf = append(buf, hlbr)

	chunks := cfg.LowBandChunks
	if chunks <= 0 {
		chunks = 20
	}
	width := (cfg.LowBandHi - cfg.LowBandLo) / float64(chunks)
	for c := 0; c < chunks; c++ {
		lo := cfg.LowBandLo + float64(c)*width
		hi := lo + width
		loBin := dsp.FreqBin(lo, n, fs)
		hiBin := dsp.FreqBin(hi, n, fs)
		if hiBin >= len(spec) {
			hiBin = len(spec) - 1
		}
		var mags []float64
		if hiBin >= loBin {
			mags = dsp.MagnitudeInto(ws.mag[:0], spec[loBin:hiBin+1])
			ws.mag = mags
		}
		buf = append(buf, dsp.Mean(mags), dsp.RMS(mags), dsp.Std(mags))
	}
	return buf
}
