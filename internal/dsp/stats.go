package dsp

import (
	"math"
)

// Mean returns the arithmetic mean of x, or 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than
// two samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var acc float64
	for _, v := range x {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// RMS returns the root-mean-square of x, or 0 for empty input.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		acc += v * v
	}
	return math.Sqrt(acc / float64(len(x)))
}

// Max returns the maximum value of x, or -Inf for empty input.
func Max(x []float64) float64 {
	out := math.Inf(-1)
	for _, v := range x {
		if v > out {
			out = v
		}
	}
	return out
}

// Min returns the minimum value of x, or +Inf for empty input.
func Min(x []float64) float64 {
	out := math.Inf(1)
	for _, v := range x {
		if v < out {
			out = v
		}
	}
	return out
}

// MaxAbs returns the largest absolute value in x, or 0 for empty input.
func MaxAbs(x []float64) float64 {
	var out float64
	for _, v := range x {
		if a := math.Abs(v); a > out {
			out = a
		}
	}
	return out
}

// ArgMax returns the index of the maximum value, or -1 for empty input.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}

// Skewness returns the sample skewness (third standardized moment) of
// x, or 0 when undefined.
func Skewness(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := Std(x)
	if s == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		d := (v - m) / s
		acc += d * d * d
	}
	return acc / float64(len(x))
}

// Kurtosis returns the sample kurtosis (fourth standardized moment,
// non-excess: a Gaussian gives ~3) of x, or 0 when undefined.
func Kurtosis(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := Std(x)
	if s == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		d := (v - m) / s
		acc += d * d * d * d
	}
	return acc / float64(len(x))
}

// MAD returns the mean absolute deviation of x about its mean.
func MAD(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var acc float64
	for _, v := range x {
		acc += math.Abs(v - m)
	}
	return acc / float64(len(x))
}

// Normalize scales x so its maximum absolute value is 1 and returns a
// new slice. Silent input is returned as a copy unchanged.
func Normalize(x []float64) []float64 {
	out := make([]float64, len(x))
	peak := MaxAbs(x)
	if peak == 0 {
		copy(out, x)
		return out
	}
	for i, v := range x {
		out[i] = v / peak
	}
	return out
}

// ZScore standardizes x to zero mean and unit variance and returns a
// new slice. Constant input yields all zeros.
func ZScore(x []float64) []float64 {
	return ZScoreInto(make([]float64, len(x)), x)
}

// ZScoreInto is the dst-reusing variant of ZScore: it standardizes x
// into dst (grown if needed) and returns dst[:len(x)]. Constant input
// yields all zeros. dst may alias x.
func ZScoreInto(dst, x []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	m := Mean(x)
	s := Std(x)
	if s == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, v := range x {
		dst[i] = (v - m) / s
	}
	return dst
}

// Peak is a local maximum found by TopPeaks.
type Peak struct {
	Index int
	Value float64
}

// TopPeaks returns up to k local maxima of x ordered by descending
// value. A local maximum is a sample strictly greater than both
// neighbors; plateau edges and the first/last samples are not
// considered.
func TopPeaks(x []float64, k int) []Peak {
	return TopPeaksInto(nil, x, k)
}

// TopPeaksInto is TopPeaks writing into scratch (grown as needed and
// returned truncated to the result). With a caller-reused scratch whose
// capacity covers the peak count it performs no allocation: the sort is
// an in-place insertion sort rather than sort.Slice, whose closure and
// interface boxing allocate.
func TopPeaksInto(scratch []Peak, x []float64, k int) []Peak {
	peaks := scratch[:0]
	for i := 1; i < len(x)-1; i++ {
		if x[i] > x[i-1] && x[i] > x[i+1] {
			peaks = append(peaks, Peak{Index: i, Value: x[i]})
		}
	}
	// Insertion sort by descending value. Stable, like sort.Slice is
	// not, but ties in Value keep ascending-index order either way
	// because candidates are appended in index order.
	for i := 1; i < len(peaks); i++ {
		p := peaks[i]
		j := i - 1
		for j >= 0 && peaks[j].Value < p.Value {
			peaks[j+1] = peaks[j]
			j--
		}
		peaks[j+1] = p
	}
	if len(peaks) > k {
		peaks = peaks[:k]
	}
	return peaks
}
