package dsp

// SparseTap is a single impulse-response tap at an integer sample
// delay, used for efficient image-source convolution where the RIR is a
// sparse set of scaled delays.
type SparseTap struct {
	Delay int     // sample delay (>= 0)
	Gain  float64 // amplitude
}

// ConvolveSparse convolves x with a sparse impulse response given as a
// tap list and accumulates the result into dst (dst must be at least
// len(x)+maxDelay long; extra room beyond dst's length is silently
// truncated). Accumulating lets callers mix several band-limited
// contributions into one output buffer.
func ConvolveSparse(dst, x []float64, taps []SparseTap) {
	for _, t := range taps {
		if t.Gain == 0 || t.Delay < 0 {
			continue
		}
		limit := len(dst) - t.Delay
		if limit > len(x) {
			limit = len(x)
		}
		out := dst[t.Delay:]
		for i := 0; i < limit; i++ {
			out[i] += t.Gain * x[i]
		}
	}
}
