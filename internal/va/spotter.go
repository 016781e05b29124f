// Package va simulates a smart-home voice assistant around the
// HeadTalk core: a wake-word spotter, a cloud-upload log (the privacy
// surface HeadTalk protects) and scenario harnesses for replay attacks
// and accidental TV activations.
package va

import (
	"fmt"
	"math"
	"math/rand/v2"

	"headtalk/internal/dsp"
	"headtalk/internal/speech"
)

// Spotter is a lightweight template-matching wake-word detector. Real
// VAs run a small neural keyword spotter; for this repo the spotter
// correlates log-filterbank "fingerprints" of the incoming audio
// against synthesized reference templates of the wake word. It is
// deliberately speaker-independent — and therefore happy to fire on a
// replayed or TV-spoken wake word, which is exactly the misactivation
// HeadTalk exists to stop.
type Spotter struct {
	Word      speech.WakeWord
	Threshold float64
	templates [][]float64 // flattened fingerprint per template
	zscores   [][]float64 // z-scored templates at full length (cached)
	frames    int         // fingerprint frame count
}

// Spotter fingerprint parameters: 64 ms frames hopped by 32 ms, 12
// coarse log bands up to 6 kHz.
const (
	spotFrameSec = 0.064
	spotHopSec   = 0.032
	spotBands    = 12
	spotMaxHz    = 6000.0
)

// SpotterSampleRate is the rate the spotter's fingerprints are
// computed at; audio at other rates is resampled (batch Detect) or
// decimated (the streaming ingest path) down to it first.
const SpotterSampleRate = 16000.0

// NewSpotter builds a spotter for the word from numTemplates
// synthesized speaker variants.
func NewSpotter(word speech.WakeWord, numTemplates int, seed uint64) (*Spotter, error) {
	if numTemplates < 1 {
		numTemplates = 4
	}
	rng := rand.New(rand.NewPCG(seed, 0x5b07734))
	s := &Spotter{Word: word, Threshold: 0.55}
	const fs = 16000
	for i := 0; i < numTemplates; i++ {
		voice := speech.RandomVoice(rng)
		buf := speech.Synthesize(word, voice, fs, rng)
		fp, err := fingerprint(buf.Samples, fs)
		if err != nil {
			return nil, fmt.Errorf("va: building template %d: %w", i, err)
		}
		if s.frames == 0 || len(fp)/spotBands < s.frames {
			s.frames = len(fp) / spotBands
		}
		s.templates = append(s.templates, fp)
	}
	// Truncate all templates to the shortest so offsets align, and
	// cache each template's z-score: the detection loop correlates the
	// same (constant) templates against every window offset, so
	// standardizing them once moves that work out of the hot path.
	for i, t := range s.templates {
		s.templates[i] = t[:s.frames*spotBands]
		s.zscores = append(s.zscores, dsp.ZScore(s.templates[i]))
	}
	return s, nil
}

// Fingerprinter computes the spotter's log-band energy fingerprint one
// frame at a time on the planned real FFT, with every buffer (windowed
// frame, spectrum, power) reused across calls — the per-hop unit the
// streaming ingest path runs with zero steady-state allocations. A
// Fingerprinter is not safe for concurrent use.
type Fingerprinter struct {
	fs       float64
	frameLen int
	hop      int
	win      []float64
	edges    [spotBands][2]int
	scratch  []float64
	spec     []complex128
	pow      []float64
	plan     *dsp.FFTPlan
}

// NewFingerprinter builds a fingerprinter for audio at fs (use
// SpotterSampleRate to match the spotter's templates).
func NewFingerprinter(fs float64) (*Fingerprinter, error) {
	frameLen := int(spotFrameSec * fs)
	hop := int(spotHopSec * fs)
	if frameLen < 2 || hop < 1 {
		return nil, fmt.Errorf("va: sample rate %g too low for fingerprint frames", fs)
	}
	bins := frameLen/2 + 1
	f := &Fingerprinter{
		fs:       fs,
		frameLen: frameLen,
		hop:      hop,
		win:      dsp.Hann.Coefficients(frameLen),
		scratch:  make([]float64, frameLen),
		spec:     make([]complex128, bins),
		pow:      make([]float64, bins),
		plan:     dsp.Plan(frameLen),
	}
	for b := 0; b < spotBands; b++ {
		lo := spotMaxHz * float64(b) / spotBands
		hi := spotMaxHz * float64(b+1) / spotBands
		loBin := dsp.FreqBin(lo, frameLen, fs)
		hiBin := dsp.FreqBin(hi, frameLen, fs)
		if hiBin >= bins {
			hiBin = bins - 1
		}
		f.edges[b] = [2]int{loBin, hiBin}
	}
	return f, nil
}

// FrameLen returns the analysis frame length in samples.
func (f *Fingerprinter) FrameLen() int { return f.frameLen }

// Hop returns the frame hop in samples.
func (f *Fingerprinter) Hop() int { return f.hop }

// Bands returns the band count per fingerprint frame.
func (f *Fingerprinter) Bands() int { return spotBands }

// Frame writes the log-band energies of one frame (len(x) ==
// FrameLen) into dst[:Bands()] and returns it. dst must have room for
// Bands() values; the call performs no allocations.
func (f *Fingerprinter) Frame(dst []float64, x []float64) []float64 {
	if len(x) != f.frameLen {
		panic(fmt.Sprintf("va: fingerprint frame has %d samples, want %d", len(x), f.frameLen))
	}
	for i := range f.scratch {
		f.scratch[i] = x[i] * f.win[i]
	}
	f.plan.RFFT(f.spec, f.scratch)
	dsp.PowerInto(f.pow, f.spec)
	dst = dst[:spotBands]
	for b := 0; b < spotBands; b++ {
		var acc float64
		for i := f.edges[b][0]; i <= f.edges[b][1]; i++ {
			acc += f.pow[i]
		}
		dst[b] = math.Log(acc + 1e-12)
	}
	return dst
}

// fingerprint computes the flattened log-band energy matrix of x by
// running a Fingerprinter over hopped frames.
func fingerprint(x []float64, fs float64) ([]float64, error) {
	f, err := NewFingerprinter(fs)
	if err != nil {
		return nil, err
	}
	if len(x) < f.frameLen {
		return nil, fmt.Errorf("va: audio too short for fingerprint (%d samples)", len(x))
	}
	nFrames := (len(x)-f.frameLen)/f.hop + 1
	out := make([]float64, 0, nFrames*spotBands)
	for start := 0; start+f.frameLen <= len(x); start += f.hop {
		out = out[:len(out)+spotBands]
		f.Frame(out[len(out)-spotBands:], x[start:start+f.frameLen])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("va: no fingerprint frames")
	}
	return out, nil
}

// Detect scans mono audio for the wake word and returns whether any
// template matches above the threshold, the best normalized
// correlation score and the frame offset of the best match.
func (s *Spotter) Detect(x []float64, fs float64) (bool, float64, int) {
	wav := x
	if fs != 16000 {
		resampled, err := dsp.Resample(x, fs, 16000)
		if err != nil {
			return false, 0, 0
		}
		wav = resampled
	}
	fp, err := fingerprint(wav, 16000)
	if err != nil {
		return false, 0, 0
	}
	frames := len(fp) / spotBands
	if frames < s.frames {
		// Shorter than the template: compare what we have.
		best := s.bestScoreAt(fp, 0, frames)
		return best >= s.Threshold, best, 0
	}
	bestScore := -1.0
	bestOffset := 0
	for off := 0; off+s.frames <= frames; off++ {
		score := s.bestScoreAt(fp, off, s.frames)
		if score > bestScore {
			bestScore = score
			bestOffset = off
		}
	}
	return bestScore >= s.Threshold, bestScore, bestOffset
}

// TemplateFrames returns the fingerprint frame count of the spotter's
// (truncated, aligned) templates — the sliding-window length an online
// scorer must accumulate before scores are meaningful.
func (s *Spotter) TemplateFrames() int { return s.frames }

// NewOnline returns an online scorer over this spotter's templates.
// Where Detect re-fingerprints a whole buffered window per scan, the
// online spotter consumes one fingerprint frame per hop — each hop is
// transformed exactly once, window slide reuses every previously
// computed frame — and scores the template-length window ending at the
// newest frame. Scanning all offsets falls out for free: every offset
// is "the newest window" exactly once as frames arrive.
type OnlineSpotter struct {
	s      *Spotter
	ring   []float64 // frames*spotBands fingerprint ring
	start  int       // oldest frame slot
	filled int       // frames currently held
	win    []float64 // linearized window scratch
	wz     []float64 // z-scored window scratch
}

// NewOnline builds an online scorer; see OnlineSpotter.
func (s *Spotter) NewOnline() *OnlineSpotter {
	n := s.frames * spotBands
	return &OnlineSpotter{
		s:    s,
		ring: make([]float64, n),
		win:  make([]float64, n),
		wz:   make([]float64, n),
	}
}

// Reset discards accumulated frames (after a silence gap or an
// accepted detection, so a stale partial window cannot blend into the
// next utterance).
func (o *OnlineSpotter) Reset() {
	o.start = 0
	o.filled = 0
}

// PushFrame appends one fingerprint frame (one value per band) and,
// once a full window has accumulated, returns the best normalized
// template correlation for the window ending at this frame and
// ready=true. The call performs no allocations.
func (o *OnlineSpotter) PushFrame(frame []float64) (score float64, ready bool) {
	if len(frame) != spotBands {
		panic(fmt.Sprintf("va: fingerprint frame has %d bands, want %d", len(frame), spotBands))
	}
	frames := o.s.frames
	slot := (o.start + o.filled) % frames
	if o.filled == frames {
		// Window full: overwrite the oldest frame and slide.
		slot = o.start
		o.start = (o.start + 1) % frames
	} else {
		o.filled++
	}
	copy(o.ring[slot*spotBands:(slot+1)*spotBands], frame)
	if o.filled < frames {
		return 0, false
	}
	// Linearize oldest→newest, standardize, correlate against the
	// cached z-scored templates (always full length here, so the
	// truncate-and-rescore path of bestScoreAt never runs).
	head := (frames - o.start) * spotBands
	copy(o.win[:head], o.ring[o.start*spotBands:])
	copy(o.win[head:], o.ring[:o.start*spotBands])
	dsp.ZScoreInto(o.wz, o.win)
	best := -1.0
	for _, tz := range o.s.zscores {
		var corr float64
		for i := range tz {
			corr += tz[i] * o.wz[i]
		}
		corr /= float64(len(tz))
		if corr > best {
			best = corr
		}
	}
	return best, true
}

// bestScoreAt returns the max normalized correlation across templates
// for a window of the fingerprint.
func (s *Spotter) bestScoreAt(fp []float64, offset, frames int) float64 {
	window := fp[offset*spotBands : (offset+frames)*spotBands]
	wz := dsp.ZScore(window)
	best := -1.0
	for ti, t := range s.templates {
		var tz []float64
		if len(t) == len(wz) {
			tz = s.zscores[ti] // full-length match: cached z-score
		} else {
			tz = dsp.ZScore(t[:len(wz)])
		}
		var corr float64
		for i := range tz {
			corr += tz[i] * wz[i]
		}
		corr /= float64(len(tz))
		if corr > best {
			best = corr
		}
	}
	return best
}
