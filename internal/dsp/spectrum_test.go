package dsp

import (
	"math"
	"testing"
)

func sine(freq, fs float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2 * math.Pi * freq * float64(i) / fs)
	}
	return out
}

func TestWindowsUnityAtCenterish(t *testing.T) {
	for _, w := range []Window{Hann, Hamming, Blackman} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%s: length %d", w, len(c))
		}
		if c[32] < 0.9 {
			t.Errorf("%s: center coefficient %g, want ~1", w, c[32])
		}
		if c[0] > 0.1 {
			t.Errorf("%s: edge coefficient %g, want ~0", w, c[0])
		}
	}
}

func TestWindowEdgeCases(t *testing.T) {
	if got := Hann.Coefficients(0); len(got) != 0 {
		t.Error("zero-length window should be empty")
	}
	if got := Hann.Coefficients(1); got[0] != 1 {
		t.Error("length-1 window should be [1]")
	}
	rect := Rectangular.Coefficients(8)
	for _, v := range rect {
		if v != 1 {
			t.Fatal("rectangular window should be all ones")
		}
	}
}

// welchPSD is Welch's method on a fresh workspace.
func welchPSD(x []float64, frameLen int) ([]float64, error) {
	var w PSDWorkspace
	return w.WelchPSD(nil, x, frameLen)
}

func TestWelchPSDPeak(t *testing.T) {
	const fs = 8000.0
	x := sine(1000, fs, 8000)
	psd, err := welchPSD(x, 512)
	if err != nil {
		t.Fatal(err)
	}
	peakBin := ArgMax(psd)
	peakFreq := float64(peakBin) * fs / 512
	if math.Abs(peakFreq-1000) > fs/512 {
		t.Errorf("PSD peak at %g Hz, want ~1000", peakFreq)
	}
}

func TestWelchPSDErrors(t *testing.T) {
	if _, err := welchPSD(make([]float64, 10), 0); err == nil {
		t.Error("expected error for zero frame length")
	}
	if _, err := welchPSD(make([]float64, 10), 64); err == nil {
		t.Error("expected error for too-short signal")
	}
}

func TestBandEnergy(t *testing.T) {
	const fs = 8000.0
	n := 4096
	x := sine(1000, fs, n)
	spec := HalfSpectrum(x)
	in := BandEnergy(spec, n, fs, 900, 1100)
	out := BandEnergy(spec, n, fs, 2000, 3000)
	if in <= 10*out {
		t.Errorf("tone band energy %g not dominant over empty band %g", in, out)
	}
	if BandEnergy(spec, n, fs, 3000, 2000) != 0 {
		t.Error("inverted band should give 0")
	}
}
