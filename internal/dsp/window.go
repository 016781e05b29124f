package dsp

import "math"

// Window identifies a window function.
type Window int

// Supported window functions.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
)

// String returns the window's name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Hamming:
		return "hamming"
	case Blackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// Coefficients returns the n window coefficients for w. Periodic
// (DFT-even) form is used, which is the conventional choice for
// spectral analysis with overlapping frames.
func (w Window) Coefficients(n int) []float64 {
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = 1
		return out
	}
	for i := 0; i < n; i++ {
		x := 2 * math.Pi * float64(i) / float64(n)
		switch w {
		case Rectangular:
			out[i] = 1
		case Hann:
			out[i] = 0.5 - 0.5*math.Cos(x)
		case Hamming:
			out[i] = 0.54 - 0.46*math.Cos(x)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(x) + 0.08*math.Cos(2*x)
		default:
			out[i] = 1
		}
	}
	return out
}
