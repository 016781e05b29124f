package dsp

import "math"

// A thin wrapper keeps the hot spectral loops readable.
func sqrt(x float64) float64 { return math.Sqrt(x) }
