package stream

import "fmt"

// HopFramer turns an arbitrary-chunked sample feed into hopped
// analysis frames: it accumulates pushed samples, emits each complete
// frameLen-sample frame, then slides by hop — retaining the
// frameLen−hop overlap so overlapping frames are assembled without
// ever re-reading delivered samples. The emit callback receives a view
// into the framer's internal buffer valid only for the duration of the
// call. HopFramer is not safe for concurrent use.
type HopFramer struct {
	frameLen int
	hop      int
	buf      []float64
	n        int // valid samples in buf
}

// NewHopFramer builds a framer for frameLen-sample frames hopped by
// hop (0 < hop ≤ frameLen).
func NewHopFramer(frameLen, hop int) *HopFramer {
	if frameLen < 1 || hop < 1 || hop > frameLen {
		panic(fmt.Sprintf("stream: invalid framer geometry frameLen=%d hop=%d", frameLen, hop))
	}
	return &HopFramer{frameLen: frameLen, hop: hop, buf: make([]float64, frameLen)}
}

// Reset discards buffered samples.
func (h *HopFramer) Reset() { h.n = 0 }

// Push feeds samples and calls emit once per completed frame. It
// performs no allocations (emit permitting) and returns the number of
// frames emitted.
func (h *HopFramer) Push(x []float64, emit func(frame []float64)) int {
	frames := 0
	for len(x) > 0 {
		take := h.frameLen - h.n
		if take > len(x) {
			take = len(x)
		}
		copy(h.buf[h.n:], x[:take])
		h.n += take
		x = x[take:]
		if h.n == h.frameLen {
			emit(h.buf)
			frames++
			// Slide: keep the frameLen−hop overlap for the next frame.
			copy(h.buf, h.buf[h.hop:])
			h.n = h.frameLen - h.hop
		}
	}
	return frames
}
