package dsp

import (
	"fmt"
	"math"
)

// Biquad is a single second-order IIR section in direct form II
// transposed. The zero value is an identity filter only after
// coefficients are set; use the design constructors in this package.
type Biquad struct {
	B0, B1, B2 float64 // feed-forward coefficients
	A1, A2     float64 // feedback coefficients (a0 normalized to 1)
	z1, z2     float64 // state
}

// Process filters one sample through the section.
func (b *Biquad) Process(x float64) float64 {
	y := b.B0*x + b.z1
	b.z1 = b.B1*x - b.A1*y + b.z2
	b.z2 = b.B2*x - b.A2*y
	return y
}

// Reset clears the section's internal state.
func (b *Biquad) Reset() {
	b.z1, b.z2 = 0, 0
}

// IIRFilter is a cascade of biquad sections.
type IIRFilter struct {
	sections []Biquad
}

// Clone returns an independent filter with the same coefficients and
// freshly reset state. Cloning a designed filter is much cheaper than
// re-running the design math (no trig), and gives each goroutine its
// own biquad state so concurrent Apply calls never race.
func (f *IIRFilter) Clone() *IIRFilter {
	out := &IIRFilter{sections: make([]Biquad, len(f.sections))}
	copy(out.sections, f.sections)
	out.Reset()
	return out
}

// Reset clears all section states.
func (f *IIRFilter) Reset() {
	for i := range f.sections {
		f.sections[i].Reset()
	}
}

// Process filters one sample through the full cascade, updating state.
func (f *IIRFilter) Process(x float64) float64 {
	for i := range f.sections {
		x = f.sections[i].Process(x)
	}
	return x
}

// Apply resets the filter and runs x through it, returning a new slice.
func (f *IIRFilter) Apply(x []float64) []float64 {
	return f.ApplyTo(make([]float64, len(x)), x)
}

// ApplyTo resets the filter and runs x through it into dst, which must
// be at least len(x) long. It returns dst[:len(x)] and performs no
// allocation, so a caller-owned arena makes repeated filtering free.
//
// The cascade runs two sections per pass over the signal: one pass
// feeds sample n into section k while section k+1 takes section k's
// output for sample n-1, each section's coefficients and state held in
// locals. Every section still sees the same inputs in the same order
// and evaluates the same expressions, so the output and the final
// state are bit-identical to Process per sample. What changes is
// speed: one section's recurrence is latency-bound (each output waits
// on the previous one), and two independent recurrences in one loop
// overlap. An odd section count ends with a single-section pass.
func (f *IIRFilter) ApplyTo(dst, x []float64) []float64 {
	f.Reset()
	dst = dst[:len(x)]
	copy(dst, x)
	if len(dst) == 0 {
		return dst
	}
	secs := f.sections
	k := 0
	for ; k+1 < len(secs); k += 2 {
		s, t := &secs[k], &secs[k+1]
		b0, b1, b2, a1, a2 := s.B0, s.B1, s.B2, s.A1, s.A2
		c0, c1, c2, d1, d2 := t.B0, t.B1, t.B2, t.A1, t.A2
		z1, z2 := s.z1, s.z2
		u1, u2 := t.z1, t.z2
		// Section k on sample 0 primes the pipeline.
		v := dst[0]
		p := b0*v + z1
		z1 = b1*v - a1*p + z2
		z2 = b2*v - a2*p
		for n := 1; n < len(dst); n++ {
			v := dst[n]
			y := b0*v + z1
			z1 = b1*v - a1*y + z2
			z2 = b2*v - a2*y
			w := c0*p + u1
			u1 = c1*p - d1*w + u2
			u2 = c2*p - d2*w
			dst[n-1] = w
			p = y
		}
		// Section k+1 on the last sample drains it.
		w := c0*p + u1
		u1 = c1*p - d1*w + u2
		u2 = c2*p - d2*w
		dst[len(dst)-1] = w
		s.z1, s.z2 = z1, z2
		t.z1, t.z2 = u1, u2
	}
	if k < len(secs) {
		s := &secs[k]
		b0, b1, b2, a1, a2 := s.B0, s.B1, s.B2, s.A1, s.A2
		z1, z2 := s.z1, s.z2
		for n, v := range dst {
			y := b0*v + z1
			z1 = b1*v - a1*y + z2
			z2 = b2*v - a2*y
			dst[n] = y
		}
		s.z1, s.z2 = z1, z2
	}
	return dst
}

// butterworthQs returns the section Q factors for an order-n Butterworth
// prototype: one entry per conjugate pole pair. hasReal reports whether
// an additional real pole (first-order section) is required (odd order).
func butterworthQs(order int) (qs []float64, hasReal bool) {
	pairs := order / 2
	qs = make([]float64, 0, pairs)
	for k := 0; k < pairs; k++ {
		// Pole pair at angle theta from the imaginary axis; the angle
		// from the negative real axis is pi/2 - theta, so
		// Q = 1/(2 cos(pi/2 - theta)) = 1/(2 sin theta). Order 2 gives
		// the familiar Q = 0.7071.
		theta := math.Pi * float64(2*k+1) / float64(2*order)
		qs = append(qs, 1/(2*math.Sin(theta)))
	}
	return qs, order%2 == 1
}

// rbjLowPass returns an RBJ-cookbook low-pass biquad (the bilinear
// transform of the analog prototype with frequency prewarping).
func rbjLowPass(fc, fs, q float64) Biquad {
	w0 := 2 * math.Pi * fc / fs
	cw, sw := math.Cos(w0), math.Sin(w0)
	alpha := sw / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 - cw) / 2 / a0,
		B1: (1 - cw) / a0,
		B2: (1 - cw) / 2 / a0,
		A1: -2 * cw / a0,
		A2: (1 - alpha) / a0,
	}
}

// rbjHighPass returns an RBJ-cookbook high-pass biquad.
func rbjHighPass(fc, fs, q float64) Biquad {
	w0 := 2 * math.Pi * fc / fs
	cw, sw := math.Cos(w0), math.Sin(w0)
	alpha := sw / (2 * q)
	a0 := 1 + alpha
	return Biquad{
		B0: (1 + cw) / 2 / a0,
		B1: -(1 + cw) / a0,
		B2: (1 + cw) / 2 / a0,
		A1: -2 * cw / a0,
		A2: (1 - alpha) / a0,
	}
}

// firstOrderLowPass returns a one-pole/one-zero low-pass section from
// the bilinear transform of 1/(s/wc+1), expressed as a degenerate
// biquad.
func firstOrderLowPass(fc, fs float64) Biquad {
	k := math.Tan(math.Pi * fc / fs)
	a0 := k + 1
	return Biquad{
		B0: k / a0,
		B1: k / a0,
		A1: (k - 1) / a0,
	}
}

// firstOrderHighPass returns a one-pole/one-zero high-pass section.
func firstOrderHighPass(fc, fs float64) Biquad {
	k := math.Tan(math.Pi * fc / fs)
	a0 := k + 1
	return Biquad{
		B0: 1 / a0,
		B1: -1 / a0,
		A1: (k - 1) / a0,
	}
}

func validateCutoff(fc, fs float64) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g must be positive", fs)
	}
	if fc <= 0 || fc >= fs/2 {
		return fmt.Errorf("dsp: cutoff %g Hz outside (0, %g) at fs=%g", fc, fs/2, fs)
	}
	return nil
}

// NewButterworthLowPass designs an order-n Butterworth low-pass filter
// with -3 dB point fc at sample rate fs.
func NewButterworthLowPass(order int, fc, fs float64) (*IIRFilter, error) {
	if order < 1 {
		return nil, fmt.Errorf("dsp: filter order %d must be >= 1", order)
	}
	if err := validateCutoff(fc, fs); err != nil {
		return nil, err
	}
	qs, hasReal := butterworthQs(order)
	f := &IIRFilter{}
	for _, q := range qs {
		f.sections = append(f.sections, rbjLowPass(fc, fs, q))
	}
	if hasReal {
		f.sections = append(f.sections, firstOrderLowPass(fc, fs))
	}
	return f, nil
}

// NewButterworthHighPass designs an order-n Butterworth high-pass
// filter with -3 dB point fc at sample rate fs.
func NewButterworthHighPass(order int, fc, fs float64) (*IIRFilter, error) {
	if order < 1 {
		return nil, fmt.Errorf("dsp: filter order %d must be >= 1", order)
	}
	if err := validateCutoff(fc, fs); err != nil {
		return nil, err
	}
	qs, hasReal := butterworthQs(order)
	f := &IIRFilter{}
	for _, q := range qs {
		f.sections = append(f.sections, rbjHighPass(fc, fs, q))
	}
	if hasReal {
		f.sections = append(f.sections, firstOrderHighPass(fc, fs))
	}
	return f, nil
}

// NewButterworthBandPass designs a band-pass filter as a cascade of an
// order-n Butterworth high-pass at lo and an order-n Butterworth
// low-pass at hi. This is the structure behind HeadTalk's preprocessing
// stage (paper §III: "fifth-order Butterworth bandpass filter to keep
// the audio within the frequency range of 100~16000 Hz").
func NewButterworthBandPass(order int, lo, hi, fs float64) (*IIRFilter, error) {
	if lo >= hi {
		return nil, fmt.Errorf("dsp: band edges inverted: lo=%g hi=%g", lo, hi)
	}
	hp, err := NewButterworthHighPass(order, lo, fs)
	if err != nil {
		return nil, err
	}
	lp, err := NewButterworthLowPass(order, hi, fs)
	if err != nil {
		return nil, err
	}
	return &IIRFilter{sections: append(hp.sections, lp.sections...)}, nil
}

// FIRLowPass designs a windowed-sinc (Hamming) linear-phase low-pass
// FIR filter with the given number of taps and cutoff frequency fc at
// sample rate fs. Taps is forced odd so the filter has integer group
// delay of (taps-1)/2 samples.
func FIRLowPass(taps int, fc, fs float64) []float64 {
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	h := make([]float64, taps)
	mid := (taps - 1) / 2
	wc := 2 * math.Pi * fc / fs
	win := Hamming.Coefficients(taps)
	var sum float64
	for i := 0; i < taps; i++ {
		n := float64(i - mid)
		var v float64
		if i == mid {
			v = wc / math.Pi
		} else {
			v = math.Sin(wc*n) / (math.Pi * n)
		}
		h[i] = v * win[i]
		sum += h[i]
	}
	// Normalize to unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return h
}

// FIRFilter convolves x with the FIR taps h and returns a slice the
// same length as x (the filter's leading transient is included; group
// delay is not compensated).
func FIRFilter(x, h []float64) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		var acc float64
		for j, tap := range h {
			if k := i - j; k >= 0 {
				acc += tap * x[k]
			}
		}
		out[i] = acc
	}
	return out
}
