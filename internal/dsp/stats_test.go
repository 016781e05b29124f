package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdRMS(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Mean(x); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if got := Std(x); !almostEq(got, math.Sqrt(1.25), 1e-12) {
		t.Errorf("Std = %g", got)
	}
	if got := RMS(x); !almostEq(got, math.Sqrt(7.5), 1e-12) {
		t.Errorf("RMS = %g", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 || RMS(nil) != 0 || MAD(nil) != 0 {
		t.Error("empty-input statistics should be 0")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) should be -1")
	}
	if !math.IsInf(Max(nil), -1) || !math.IsInf(Min(nil), 1) {
		t.Error("Max/Min of empty input should be ∓Inf")
	}
}

func TestMinMaxArgMax(t *testing.T) {
	x := []float64{3, -7, 5, 5, 0}
	if Max(x) != 5 || Min(x) != -7 || MaxAbs(x) != 7 {
		t.Errorf("Max/Min/MaxAbs wrong: %g %g %g", Max(x), Min(x), MaxAbs(x))
	}
	if ArgMax(x) != 2 {
		t.Errorf("ArgMax = %d, want first maximum index 2", ArgMax(x))
	}
}

func TestSkewnessKurtosisGaussian(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := make([]float64, 200000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if s := Skewness(x); math.Abs(s) > 0.05 {
		t.Errorf("Gaussian skewness = %g, want ~0", s)
	}
	if k := Kurtosis(x); math.Abs(k-3) > 0.1 {
		t.Errorf("Gaussian kurtosis = %g, want ~3", k)
	}
}

func TestSkewnessSign(t *testing.T) {
	rightSkewed := []float64{0, 0, 0, 0, 0, 10}
	if Skewness(rightSkewed) <= 0 {
		t.Error("right-skewed data should have positive skewness")
	}
}

func TestConstantInputMoments(t *testing.T) {
	x := []float64{2, 2, 2, 2}
	if Skewness(x) != 0 || Kurtosis(x) != 0 {
		t.Error("constant input should yield zero higher moments")
	}
}

func TestMAD(t *testing.T) {
	x := []float64{1, 1, 3, 3}
	if got := MAD(x); got != 1 {
		t.Errorf("MAD = %g, want 1", got)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{0.5, -2, 1}
	y := Normalize(x)
	if MaxAbs(y) != 1 {
		t.Errorf("normalized peak = %g, want 1", MaxAbs(y))
	}
	if x[1] != -2 {
		t.Error("Normalize modified input")
	}
	zeros := Normalize([]float64{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Error("silent input should stay silent")
	}
}

func TestZScore(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	z := ZScore(x)
	if !almostEq(Mean(z), 0, 1e-12) || !almostEq(Std(z), 1, 1e-12) {
		t.Errorf("ZScore mean=%g std=%g", Mean(z), Std(z))
	}
	c := ZScore([]float64{7, 7})
	if c[0] != 0 || c[1] != 0 {
		t.Error("constant input should z-score to zeros")
	}
}

func TestZScoreProperty(t *testing.T) {
	f := func(raw [16]float64) bool {
		x := make([]float64, len(raw))
		varies := false
		for i, v := range raw {
			x[i] = clampQuick(v)
			if x[i] != x[0] {
				varies = true
			}
		}
		z := ZScore(x)
		if !varies {
			return Mean(z) == 0
		}
		return almostEq(Mean(z), 0, 1e-6) && almostEq(Std(z), 1, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopPeaks(t *testing.T) {
	x := []float64{0, 3, 0, 5, 0, 1, 0}
	peaks := TopPeaks(x, 2)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2", len(peaks))
	}
	if peaks[0].Index != 3 || peaks[0].Value != 5 {
		t.Errorf("top peak = %+v, want index 3 value 5", peaks[0])
	}
	if peaks[1].Index != 1 || peaks[1].Value != 3 {
		t.Errorf("second peak = %+v", peaks[1])
	}
}

func TestTopPeaksEdgesExcluded(t *testing.T) {
	// Monotone data has no interior local maximum.
	if peaks := TopPeaks([]float64{1, 2, 3, 4}, 3); len(peaks) != 0 {
		t.Errorf("monotone data yielded %d peaks", len(peaks))
	}
}

func TestTopPeaksFewerThanK(t *testing.T) {
	x := []float64{0, 1, 0}
	if peaks := TopPeaks(x, 5); len(peaks) != 1 {
		t.Errorf("got %d peaks, want 1", len(peaks))
	}
}

func TestZScoreInto(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	want := ZScore(x)
	dst := make([]float64, 0, 8)
	got := ZScoreInto(dst, x)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ZScoreInto[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Constant input zeroes a previously dirty dst.
	dirty := []float64{9, 9, 9}
	out := ZScoreInto(dirty, []float64{4, 4, 4})
	for i, v := range out {
		if v != 0 {
			t.Fatalf("constant input dst[%d] = %g, want 0", i, v)
		}
	}
	// Aliasing dst == x is allowed.
	alias := []float64{1, 2, 3, 4, 5}
	ZScoreInto(alias, alias)
	for i := range want {
		if math.Abs(alias[i]-want[i]) > 1e-12 {
			t.Fatalf("aliased ZScoreInto[%d] = %g, want %g", i, alias[i], want[i])
		}
	}
	// Steady state with a sized dst performs no allocations.
	buf := make([]float64, len(x))
	if avg := testing.AllocsPerRun(100, func() { ZScoreInto(buf, x) }); avg != 0 {
		t.Errorf("ZScoreInto steady state allocates %.1f times per op, want 0", avg)
	}
}
