// Package audio provides sample buffers, multi-channel recordings, WAV
// file I/O, gain staging in dB SPL and the noise generators used to
// model ambient conditions in the paper's experiments.
package audio

import (
	"fmt"
	"math"
)

// Buffer is a mono floating-point signal at a known sample rate.
// Samples are nominally in [-1, 1] but intermediate processing may
// exceed that range.
type Buffer struct {
	SampleRate float64
	Samples    []float64
}

// NewBuffer returns a zeroed buffer of n samples at the given rate.
func NewBuffer(sampleRate float64, n int) *Buffer {
	return &Buffer{SampleRate: sampleRate, Samples: make([]float64, n)}
}

// RMS returns the root-mean-square level of the buffer.
func (b *Buffer) RMS() float64 {
	if len(b.Samples) == 0 {
		return 0
	}
	var acc float64
	for _, v := range b.Samples {
		acc += v * v
	}
	return math.Sqrt(acc / float64(len(b.Samples)))
}

// Recording is a multi-channel capture: one equal-length signal per
// microphone at a shared sample rate.
type Recording struct {
	SampleRate float64
	Channels   [][]float64
}

// NewRecording returns a zeroed recording with the given channel count
// and length.
func NewRecording(sampleRate float64, channels, n int) *Recording {
	r := &Recording{SampleRate: sampleRate, Channels: make([][]float64, channels)}
	for i := range r.Channels {
		r.Channels[i] = make([]float64, n)
	}
	return r
}

// Len returns the per-channel sample count (0 for no channels).
func (r *Recording) Len() int {
	if len(r.Channels) == 0 {
		return 0
	}
	return len(r.Channels[0])
}

// Select returns a new Recording containing only the given channel
// indices (sharing the underlying sample slices). It reports an error
// for out-of-range indices.
func (r *Recording) Select(idx []int) (*Recording, error) {
	out := &Recording{SampleRate: r.SampleRate, Channels: make([][]float64, 0, len(idx))}
	for _, i := range idx {
		if i < 0 || i >= len(r.Channels) {
			return nil, fmt.Errorf("audio: channel %d out of range (have %d)", i, len(r.Channels))
		}
		out.Channels = append(out.Channels, r.Channels[i])
	}
	return out, nil
}

// Mono returns the average of all channels as a fresh slice; useful
// for single-channel analyses such as liveness detection.
func (r *Recording) Mono() []float64 {
	return r.MonoInto(make([]float64, r.Len()))
}

// MonoInto averages all channels into dst (grown if needed) and
// returns dst[:r.Len()]. With a caller-reused dst of sufficient
// capacity it performs no allocation.
func (r *Recording) MonoInto(dst []float64) []float64 {
	n := r.Len()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	if len(r.Channels) == 0 {
		return dst
	}
	for _, ch := range r.Channels {
		for i, v := range ch {
			dst[i] += v
		}
	}
	inv := 1 / float64(len(r.Channels))
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}
