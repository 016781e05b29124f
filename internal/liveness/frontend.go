// Package liveness decides whether an utterance was produced by a live
// human or replayed through a mechanical speaker (paper §III-A). The
// paper fine-tunes a pretrained wav2vec2 on ASVspoof 2019 and then
// incrementally adapts it to its own replay data; this package plays
// the same role with a from-scratch convolutional network over log
// filterbank features of the 16 kHz downsampled utterance (see
// DESIGN.md for the substitution rationale). The discriminative signal
// is identical to the paper's Fig. 3: live speech shows exponential
// high-band decay above 4 kHz, replayed speech a flatter, noisier high
// band.
package liveness

import (
	"fmt"
	"math"
	"sync"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
)

// Frontend parameters: 16 kHz input, 25 ms frames, 10 ms hop, 24
// log-spaced triangular filters spanning 100 Hz – 7.6 kHz.
const (
	TargetRate  = 16000
	frameLen    = 400 // 25 ms at 16 kHz
	frameHop    = 160 // 10 ms
	fftSize     = 512
	NumFilters  = 24
	filterLoHz  = 100
	filterHiHz  = 7600
	logFloorEps = 1e-10
)

// The filterbank and the frame window depend only on package
// constants, so every Frames call shares one immutable copy of each.
var (
	frontendOnce sync.Once
	filterRows   []filterRow
	frameWindow  []float64
)

// filterRow is one triangular filter restricted to its nonzero bins:
// weights w apply to power bins lo, lo+1, ..., lo+len(w)-1.
type filterRow struct {
	lo int
	w  []float64
}

func frontendTables() ([]filterRow, []float64) {
	frontendOnce.Do(func() {
		for _, weights := range filterbank() {
			lo, hi := 0, len(weights)
			for lo < hi && weights[lo] == 0 {
				lo++
			}
			for hi > lo && weights[hi-1] == 0 {
				hi--
			}
			filterRows = append(filterRows, filterRow{lo: lo, w: weights[lo:hi]})
		}
		frameWindow = dsp.Hann.Coefficients(frameLen)
	})
	return filterRows, frameWindow
}

// filterbank returns NumFilters triangular filters over fftSize/2+1
// bins at TargetRate, log-spaced in frequency.
func filterbank() [][]float64 {
	centers := make([]float64, NumFilters+2)
	logLo := math.Log(filterLoHz)
	logHi := math.Log(filterHiHz)
	for i := range centers {
		centers[i] = math.Exp(logLo + (logHi-logLo)*float64(i)/float64(NumFilters+1))
	}
	bins := fftSize/2 + 1
	binHz := float64(TargetRate) / fftSize
	fb := make([][]float64, NumFilters)
	for f := 0; f < NumFilters; f++ {
		fb[f] = make([]float64, bins)
		lo, mid, hi := centers[f], centers[f+1], centers[f+2]
		for b := 0; b < bins; b++ {
			freq := float64(b) * binHz
			switch {
			case freq <= lo || freq >= hi:
				// zero
			case freq <= mid:
				fb[f][b] = (freq - lo) / (mid - lo)
			default:
				fb[f][b] = (hi - freq) / (hi - mid)
			}
		}
	}
	return fb
}

// Frames converts a waveform at sample rate fs into normalized log
// filterbank frames (T × NumFilters), the liveness network's input.
// The waveform is resampled to 16 kHz and standardized to zero mean /
// unit variance first, mirroring wav2vec2's input convention. The
// frames are the caller's to keep; Workspace.Frames is the reusing
// variant.
func Frames(x []float64, fs float64) ([][]float64, error) {
	var w Workspace
	return w.Frames(x, fs)
}

// Frames is the package Frames on w's reused buffers. The returned
// frames alias w and are valid until its next use.
func (w *Workspace) Frames(x []float64, fs float64) ([][]float64, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("liveness: empty waveform")
	}
	wav := x
	if fs != TargetRate {
		resampled, err := dsp.ResampleInto(w.wav, x, fs, TargetRate)
		if err != nil {
			return nil, fmt.Errorf("liveness: resampling %g Hz -> 16 kHz: %w", fs, err)
		}
		w.wav = resampled
		wav = resampled
	}
	w.z = dsp.ZScoreInto(w.z, wav)
	wav = w.z
	if len(wav) < frameLen {
		return nil, &audio.ErrBadInput{
			Reason: audio.BadTooShort,
			Detail: fmt.Sprintf("liveness: waveform too short (%d samples at 16 kHz, need %d)", len(wav), frameLen),
		}
	}

	fb, win := frontendTables()
	nFrames := (len(wav)-frameLen)/frameHop + 1
	frames := w.frames.Resize(nFrames, NumFilters)
	if w.buf == nil {
		w.buf = make([]float64, frameLen)
	}
	buf := w.buf
	// The fftSize-point transform reads the frame as zero-padded.
	p := dsp.Plan(fftSize)
	for fi, frame := range frames {
		start := fi * frameHop
		for i := 0; i < frameLen; i++ {
			buf[i] = wav[start+i] * win[i]
		}
		w.spec = p.RFFT(w.spec, buf)
		pow := dsp.PowerInto(w.pow, w.spec)
		w.pow = pow
		for f, row := range fb {
			var acc float64
			bins := pow[row.lo : row.lo+len(row.w)]
			for b, wt := range row.w {
				acc += wt * bins[b]
			}
			frame[f] = math.Log(acc + logFloorEps)
		}
	}

	// Per-utterance feature normalization.
	if cap(w.col) < nFrames {
		w.col = make([]float64, nFrames)
	}
	col := w.col[:nFrames]
	for f := 0; f < NumFilters; f++ {
		for t := range frames {
			col[t] = frames[t][f]
		}
		m := dsp.Mean(col)
		s := dsp.Std(col)
		if s < 1e-9 {
			s = 1
		}
		for t := range frames {
			frames[t][f] = (frames[t][f] - m) / s
		}
	}
	return frames, nil
}
