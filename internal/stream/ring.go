// Package stream is the continuous-listening ingest subsystem: the
// layer that turns an endless multichannel sample feed into the
// discrete wake-word decisions the rest of the system serves. Each
// session owns a fixed-capacity multichannel ring buffer fed by
// chunked frame pushes, a hop framer feeding the spotter's fingerprint
// path over overlapping hops (every hop is transformed exactly once on
// the planned FFT engine; window slide reuses previously transformed
// hops), an online wake-word spotter, and an early-exit cascade that
// fails fast on the cheap gates — frame validation, the energy/VAD
// floor, then the spotter — so the expensive liveness/orientation
// pipeline (GCC over all pairs) only ever runs on a spotted candidate
// window. A SessionManager bounds the session count and evicts idle
// sessions on a timeout, the per-speaker session-tracking shape of
// continuous verification systems.
package stream

import (
	"headtalk/internal/audio"
)

// Ring is a fixed-capacity multichannel sample ring buffer: the
// per-session retention window the spotter's candidate snapshots are
// cut from. Pushes never allocate; a chunk larger than the capacity
// keeps only its newest samples. Ring is not safe for concurrent use —
// each session serializes access with its own lock.
type Ring struct {
	chans  [][]float64
	cap    int
	pos    int // next write index
	filled int
}

// NewRing returns a ring holding capacity samples per channel.
func NewRing(channels, capacity int) *Ring {
	if channels < 1 || capacity < 1 {
		panic("stream: ring needs at least one channel and one sample of capacity")
	}
	r := &Ring{chans: make([][]float64, channels), cap: capacity}
	for i := range r.chans {
		r.chans[i] = make([]float64, capacity)
	}
	return r
}

// Channels returns the channel count.
func (r *Ring) Channels() int { return len(r.chans) }

// Cap returns the per-channel capacity in samples.
func (r *Ring) Cap() int { return r.cap }

// Push appends one chunk — frame[c] is channel c's samples, all equal
// length (the caller validates shape). The newest samples win when the
// chunk exceeds capacity. Push performs no allocations.
func (r *Ring) Push(frame [][]float64) {
	n := len(frame[0])
	if n == 0 {
		return
	}
	if n >= r.cap {
		// Only the newest cap samples survive; realign to slot 0 so the
		// copy is one straight pass per channel.
		for c, ch := range frame {
			copy(r.chans[c], ch[n-r.cap:])
		}
		r.pos = 0
		r.filled = r.cap
		return
	}
	first := r.cap - r.pos
	if first > n {
		first = n
	}
	for c, ch := range frame {
		copy(r.chans[c][r.pos:], ch[:first])
		copy(r.chans[c], ch[first:])
	}
	r.pos = (r.pos + n) % r.cap
	r.filled += n
	if r.filled > r.cap {
		r.filled = r.cap
	}
}

// Snapshot copies the retained window, oldest sample first, into a
// fresh Recording at the given sample rate. It allocates — sessions
// only snapshot on a spotted candidate, never on the push hot path.
func (r *Ring) Snapshot(sampleRate float64) *audio.Recording {
	n := r.filled
	rec := audio.NewRecording(sampleRate, len(r.chans), n)
	start := r.pos - n
	if start < 0 {
		start += r.cap
	}
	head := r.cap - start
	if head > n {
		head = n
	}
	for c, ch := range r.chans {
		copy(rec.Channels[c][:head], ch[start:start+head])
		copy(rec.Channels[c][head:], ch[:n-head])
	}
	return rec
}
