package liveness

import (
	"fmt"
	"math"

	"headtalk/internal/audio"
)

// FingerprintConfig tunes the array-fingerprint gate.
type FingerprintConfig struct {
	// Bands is the number of log-spaced analysis bands between MinHz
	// and MaxHz (default 48).
	Bands int `json:"bands"`
	// FrameLen is the Welch periodogram frame length (default 2048).
	FrameLen int `json:"frame_len"`
	// MinHz / MaxHz bound the analysis range (defaults 100 Hz and
	// 0.95 × Nyquist).
	MinHz float64 `json:"min_hz"`
	MaxHz float64 `json:"max_hz"`
	// ToleranceFloorDB floors the per-band enrollment tolerance so a
	// band the enrollment set happened to agree on exactly does not
	// become an impossible constraint (default 3 dB).
	ToleranceFloorDB float64 `json:"tolerance_floor_db"`
	// Threshold is the minimum similarity score Check accepts
	// (default 0.5).
	Threshold float64 `json:"threshold"`
	// Softness maps excess spectral distance to score decay: larger
	// values reject more gently (default 4).
	Softness float64 `json:"softness"`
}

func (c FingerprintConfig) withDefaults(fs float64) FingerprintConfig {
	if c.Bands == 0 {
		c.Bands = 48
	}
	if c.FrameLen == 0 {
		c.FrameLen = 2048
	}
	if c.MinHz == 0 {
		c.MinHz = 100
	}
	if c.MaxHz == 0 {
		c.MaxHz = 0.95 * fs / 2
	}
	if c.MaxHz > 0.95*fs/2 {
		c.MaxHz = 0.95 * fs / 2
	}
	if c.ToleranceFloorDB == 0 {
		c.ToleranceFloorDB = 3
	}
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.Softness == 0 {
		c.Softness = 4
	}
	return c
}

// ArrayFingerprint is the second liveness gate: the long-term spectral
// signature a microphone array imprints on everything it captures —
// its own hardware response plus the room coloration at its placement
// ("Your Microphone Array Retains Your Identity"). Live speech through
// the enrolled array stays inside the enrolled per-band tolerances;
// replayed speech arrives through an extra electro-acoustic chain
// (driver band-limiting, distortion products, playback noise floor)
// whose coloration the enrollment never saw, so its band profile
// deviates. The fingerprint is independent of the spectral ConvNet
// detector — two physical signals that a spoofer must defeat at once.
//
// An ArrayFingerprint is immutable after training and safe for
// concurrent use.
type ArrayFingerprint struct {
	cfg        FingerprintConfig
	sampleRate float64
	// signature is the enrolled mean band profile in dB, level- and
	// channel-normalized; tolerance is the per-band enrollment spread
	// (floored).
	signature []float64
	tolerance []float64
	// edges are the precomputed band bin ranges for the frame length.
	loBin, hiBin []int
}

// TrainArrayFingerprint learns the array's signature from live
// enrollment captures (multi-channel, all from the same array at its
// deployed placement). At least two captures are required so the
// per-band tolerance reflects real utterance-to-utterance variation.
func TrainArrayFingerprint(recs []*audio.Recording, cfg FingerprintConfig) (*ArrayFingerprint, error) {
	if len(recs) < 2 {
		return nil, fmt.Errorf("liveness: array fingerprint needs at least 2 enrollment captures, have %d", len(recs))
	}
	fs := recs[0].SampleRate
	cfg = cfg.withDefaults(fs)
	f := &ArrayFingerprint{cfg: cfg, sampleRate: fs}
	f.computeEdges()

	profiles := make([][]float64, 0, len(recs))
	var w Workspace
	for i, rec := range recs {
		if rec.SampleRate != fs {
			return nil, fmt.Errorf("liveness: enrollment capture %d at %g Hz, want %g", i, rec.SampleRate, fs)
		}
		p, err := f.bandProfile(&w, rec)
		if err != nil {
			return nil, fmt.Errorf("liveness: enrollment capture %d: %w", i, err)
		}
		profiles = append(profiles, append([]float64(nil), p...))
	}
	nb := cfg.Bands
	f.signature = make([]float64, nb)
	f.tolerance = make([]float64, nb)
	for b := 0; b < nb; b++ {
		var mean float64
		for _, p := range profiles {
			mean += p[b]
		}
		mean /= float64(len(profiles))
		var varSum float64
		for _, p := range profiles {
			d := p[b] - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum / float64(len(profiles)))
		if std < cfg.ToleranceFloorDB {
			std = cfg.ToleranceFloorDB
		}
		f.signature[b] = mean
		f.tolerance[b] = std
	}
	return f, nil
}

// computeEdges precomputes log-spaced band -> FFT-bin ranges.
func (f *ArrayFingerprint) computeEdges() {
	nb := f.cfg.Bands
	bins := f.cfg.FrameLen/2 + 1
	hzPerBin := f.sampleRate / float64(f.cfg.FrameLen)
	f.loBin = make([]int, nb)
	f.hiBin = make([]int, nb)
	logLo := math.Log(f.cfg.MinHz)
	logHi := math.Log(f.cfg.MaxHz)
	for b := 0; b < nb; b++ {
		lo := math.Exp(logLo + (logHi-logLo)*float64(b)/float64(nb))
		hi := math.Exp(logLo + (logHi-logLo)*float64(b+1)/float64(nb))
		loBin := int(lo / hzPerBin)
		hiBin := int(hi / hzPerBin)
		if hiBin <= loBin {
			hiBin = loBin + 1
		}
		if hiBin > bins {
			hiBin = bins
		}
		if loBin >= bins {
			loBin = bins - 1
		}
		f.loBin[b] = loBin
		f.hiBin[b] = hiBin
	}
}

// bandProfile computes the capture's level-normalized band profile in
// dB: per-channel Welch PSDs averaged across channels, folded into the
// log-spaced bands, converted to dB, with the mean level subtracted so
// capture gain cancels. The profile aliases w.
func (f *ArrayFingerprint) bandProfile(w *Workspace, rec *audio.Recording) ([]float64, error) {
	if len(rec.Channels) == 0 {
		return nil, fmt.Errorf("fingerprint profile of empty recording")
	}
	bins := f.cfg.FrameLen/2 + 1
	if cap(w.acc) < bins {
		w.acc = make([]float64, bins)
	}
	acc := w.acc[:bins]
	clear(acc)
	counted := 0
	for _, ch := range rec.Channels {
		psd, err := w.psd.WelchPSD(w.chPSD, ch, f.cfg.FrameLen)
		if err != nil {
			return nil, err
		}
		w.chPSD = psd
		for i, v := range psd {
			acc[i] += v
		}
		counted++
	}
	inv := 1 / float64(counted)
	for i := range acc {
		acc[i] *= inv
	}
	nb := f.cfg.Bands
	if cap(w.bp) < nb {
		w.bp = make([]float64, nb)
	}
	prof := w.bp[:nb]
	var mean float64
	for b := 0; b < nb; b++ {
		var e float64
		for i := f.loBin[b]; i < f.hiBin[b]; i++ {
			e += acc[i]
		}
		e /= float64(f.hiBin[b] - f.loBin[b])
		prof[b] = 10 * math.Log10(e+1e-20)
		mean += prof[b]
	}
	mean /= float64(nb)
	for b := range prof {
		prof[b] -= mean
	}
	return prof, nil
}

// ScoreWith returns a similarity score in (0, 1], computed on the
// caller's workspace: how well the capture's band profile matches the
// enrolled array signature. Live captures through the enrolled array
// score near 1; audio that crossed an extra playback chain scores low.
func (f *ArrayFingerprint) ScoreWith(w *Workspace, rec *audio.Recording) (float64, error) {
	if rec == nil || len(rec.Channels) == 0 {
		return 0, fmt.Errorf("liveness: fingerprint scoring empty recording")
	}
	if rec.SampleRate != f.sampleRate {
		return 0, fmt.Errorf("liveness: fingerprint enrolled at %g Hz, capture is %g Hz", f.sampleRate, rec.SampleRate)
	}
	prof, err := f.bandProfile(w, rec)
	if err != nil {
		return 0, fmt.Errorf("liveness: fingerprint profile: %w", err)
	}
	var d float64
	for b, v := range prof {
		z := (v - f.signature[b]) / f.tolerance[b]
		d += z * z
	}
	d /= float64(len(prof))
	// Mean squared z of ~1 is exactly the enrolled spread: full score.
	// Excess distance decays the score; Softness sets how fast.
	excess := d - 1
	if excess < 0 {
		excess = 0
	}
	return 1 / (1 + excess/f.cfg.Softness), nil
}

// Check applies the configured accept threshold.
func (f *ArrayFingerprint) Check(rec *audio.Recording) (bool, float64, error) {
	w := workspaces.Get().(*Workspace)
	defer workspaces.Put(w)
	return f.CheckWith(w, rec)
}

// CheckWith is Check on the caller's workspace.
func (f *ArrayFingerprint) CheckWith(w *Workspace, rec *audio.Recording) (bool, float64, error) {
	s, err := f.ScoreWith(w, rec)
	if err != nil {
		return false, 0, err
	}
	return s >= f.cfg.Threshold, s, nil
}
