package dsp

import (
	"math"
	"testing"
)

func TestDecimatePreservesTone(t *testing.T) {
	const (
		from = 48000.0
		to   = 16000.0
	)
	x := sine(1000, from, 9600)
	y, err := DecimateInto(nil, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 3200 {
		t.Fatalf("decimated length %d, want 3200", len(y))
	}
	// The tone should survive at the same physical frequency.
	mags := MagnitudeInto(nil, HalfSpectrum(y[:3072]))
	peakFreq := float64(ArgMax(mags)) * to / 3072
	if math.Abs(peakFreq-1000) > to/3072*2 {
		t.Errorf("tone moved to %g Hz after decimation", peakFreq)
	}
	// Amplitude roughly preserved (skip the filter transient).
	if r := RMS(y[500:]) / RMS(x[1500:]); r < 0.9 || r > 1.1 {
		t.Errorf("amplitude ratio %g after decimation", r)
	}
}

func TestDecimateRemovesAlias(t *testing.T) {
	// A 20 kHz tone must NOT alias into the 16 kHz output band.
	x := sine(20000, 48000, 9600)
	y, err := DecimateInto(nil, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r := RMS(y[500:]); r > 0.05 {
		t.Errorf("aliased energy RMS %g, want ~0", r)
	}
}

func TestDecimateValidation(t *testing.T) {
	if _, err := DecimateInto(nil, []float64{1}, 0); err == nil {
		t.Error("expected error for factor 0")
	}
	y, err := DecimateInto(nil, []float64{1, 2, 3}, 1)
	if err != nil || len(y) != 3 {
		t.Error("factor 1 should copy")
	}
}

func TestResampleIdentity(t *testing.T) {
	x := []float64{1, 2, 3}
	y, err := Resample(x, 48000, 48000)
	if err != nil {
		t.Fatal(err)
	}
	y[0] = 99
	if x[0] == 99 {
		t.Error("Resample must return a copy at identical rates")
	}
}

func TestResampleArbitraryRatio(t *testing.T) {
	x := sine(440, 44100, 44100/2)
	y, err := Resample(x, 44100, 16000)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := int(float64(len(x)) * 16000 / 44100)
	if len(y) != wantLen {
		t.Fatalf("length %d, want %d", len(y), wantLen)
	}
	mags := MagnitudeInto(nil, HalfSpectrum(y[:8000]))
	peakFreq := float64(ArgMax(mags)) * 16000 / 8000
	if math.Abs(peakFreq-440) > 10 {
		t.Errorf("tone at %g Hz after resample, want ~440", peakFreq)
	}
}

func TestResampleUpsample(t *testing.T) {
	x := sine(440, 16000, 1600)
	y, err := Resample(x, 16000, 48000)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 4800 {
		t.Fatalf("length %d, want 4800", len(y))
	}
}

func TestResampleValidation(t *testing.T) {
	if _, err := Resample([]float64{1}, 0, 16000); err == nil {
		t.Error("expected error for zero source rate")
	}
	if _, err := Resample([]float64{1}, 48000, -1); err == nil {
		t.Error("expected error for negative target rate")
	}
}
