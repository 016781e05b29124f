package dsp

// Convolve returns the full linear convolution of x and h, of length
// len(x)+len(h)-1. It automatically selects direct or FFT-based
// computation based on input sizes.
func Convolve(x, h []float64) []float64 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	// Direct convolution wins for short kernels.
	if len(h) <= 64 || len(x) <= 64 {
		return convolveDirect(x, h)
	}
	return convolveFFT(x, h)
}

func convolveDirect(x, h []float64) []float64 {
	out := make([]float64, len(x)+len(h)-1)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		for j, hv := range h {
			out[i+j] += xv * hv
		}
	}
	return out
}

func convolveFFT(x, h []float64) []float64 {
	n := len(x) + len(h) - 1
	m := NextPow2(n)
	p := Plan(m)
	xf := p.RFFT(nil, x)
	hf := p.RFFT(nil, h)
	for i := range xf {
		xf[i] *= hf[i]
	}
	return p.IRFFT(nil, xf)[:n]
}

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
