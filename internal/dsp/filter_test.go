package dsp

import (
	"math"
	"testing"
)

// toneGain measures the steady-state amplitude gain of filter f for a
// sinusoid at freq Hz.
func toneGain(f *IIRFilter, freq, fs float64) float64 {
	n := int(fs) // one second
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / fs)
	}
	y := f.Apply(x)
	// Skip the transient, compare RMS.
	settle := n / 4
	return RMS(y[settle:]) / RMS(x[settle:])
}

func TestButterworthLowPassResponse(t *testing.T) {
	const fs = 48000.0
	f, err := NewButterworthLowPass(5, 1000, fs)
	if err != nil {
		t.Fatal(err)
	}
	// -3 dB at the cutoff.
	if g := toneGain(f, 1000, fs); math.Abs(20*math.Log10(g)-(-3)) > 0.7 {
		t.Errorf("cutoff gain = %.2f dB, want ~-3 dB", 20*math.Log10(g))
	}
	// Near-unity in the passband.
	if g := toneGain(f, 100, fs); g < 0.98 || g > 1.02 {
		t.Errorf("passband gain = %g, want ~1", g)
	}
	// 5th order: -30 dB/octave; one octave above cutoff should be
	// below -27 dB.
	if g := toneGain(f, 2000, fs); 20*math.Log10(g) > -27 {
		t.Errorf("stopband gain at 2 kHz = %.2f dB, want < -27 dB", 20*math.Log10(g))
	}
}

func TestButterworthHighPassResponse(t *testing.T) {
	const fs = 48000.0
	f, err := NewButterworthHighPass(5, 1000, fs)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneGain(f, 1000, fs); math.Abs(20*math.Log10(g)-(-3)) > 0.7 {
		t.Errorf("cutoff gain = %.2f dB, want ~-3 dB", 20*math.Log10(g))
	}
	if g := toneGain(f, 8000, fs); g < 0.98 || g > 1.02 {
		t.Errorf("passband gain = %g, want ~1", g)
	}
	if g := toneGain(f, 500, fs); 20*math.Log10(g) > -27 {
		t.Errorf("stopband gain at 500 Hz = %.2f dB, want < -27 dB", 20*math.Log10(g))
	}
}

func TestButterworthBandPassPreprocessing(t *testing.T) {
	// The paper's preprocessing filter: 5th order, 100–16000 Hz at
	// 48 kHz.
	const fs = 48000.0
	f, err := NewButterworthBandPass(5, 100, 16000, fs)
	if err != nil {
		t.Fatal(err)
	}
	if g := toneGain(f, 1000, fs); g < 0.95 || g > 1.05 {
		t.Errorf("mid-band gain = %g, want ~1", g)
	}
	if g := toneGain(f, 30, fs); 20*math.Log10(g) > -20 {
		t.Errorf("sub-band gain at 30 Hz = %.2f dB, want strongly attenuated", 20*math.Log10(g))
	}
	if g := toneGain(f, 22000, fs); 20*math.Log10(g) > -8 {
		t.Errorf("super-band gain at 22 kHz = %.2f dB, want attenuated", 20*math.Log10(g))
	}
}

func TestButterworthOrderSections(t *testing.T) {
	for order := 1; order <= 8; order++ {
		f, err := NewButterworthLowPass(order, 1000, 48000)
		if err != nil {
			t.Fatal(err)
		}
		want := (order + 1) / 2
		if len(f.sections) != want {
			t.Errorf("order %d: %d sections, want %d", order, len(f.sections), want)
		}
	}
}

func TestFilterValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"zero order", func() error { _, err := NewButterworthLowPass(0, 100, 48000); return err }},
		{"negative cutoff", func() error { _, err := NewButterworthLowPass(2, -5, 48000); return err }},
		{"cutoff above Nyquist", func() error { _, err := NewButterworthLowPass(2, 30000, 48000); return err }},
		{"zero sample rate", func() error { _, err := NewButterworthHighPass(2, 100, 0); return err }},
		{"inverted band", func() error { _, err := NewButterworthBandPass(2, 5000, 100, 48000); return err }},
	}
	for _, tc := range cases {
		if tc.fn() == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestFilterApplyResetsState(t *testing.T) {
	f, err := NewButterworthLowPass(4, 1000, 48000)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 512)
	x[0] = 1
	first := f.Apply(x)
	second := f.Apply(x)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("Apply is not stateless: sample %d differs", i)
		}
	}
}

func TestFIRLowPass(t *testing.T) {
	const fs = 8000.0
	h := FIRLowPass(63, 1000, fs)
	if len(h)%2 == 0 {
		t.Fatalf("tap count %d should be odd", len(h))
	}
	// DC gain 1 by construction.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("DC gain %g, want 1", sum)
	}
	// Stopband tone strongly attenuated.
	n := 4000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 3000 * float64(i) / fs)
	}
	y := FIRFilter(x, h)
	if g := RMS(y[500:]) / RMS(x[500:]); 20*math.Log10(g) > -30 {
		t.Errorf("FIR stopband gain %.2f dB, want < -30", 20*math.Log10(g))
	}
}

func TestFIRLowPassMinimumTaps(t *testing.T) {
	h := FIRLowPass(1, 1000, 8000)
	if len(h) < 3 {
		t.Fatalf("tap floor not applied: got %d taps", len(h))
	}
}

func TestBiquadImpulseDecay(t *testing.T) {
	// A stable filter's impulse response must decay.
	f, err := NewButterworthLowPass(5, 2000, 48000)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 48000)
	x[0] = 1
	y := f.Apply(x)
	head := RMS(y[:1000])
	tail := RMS(y[40000:])
	if tail > head*1e-6 {
		t.Errorf("impulse response does not decay: head RMS %g, tail RMS %g", head, tail)
	}
}
