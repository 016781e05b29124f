package room

import (
	"math"

	"headtalk/internal/geom"
)

func sqrtf(x float64) float64 { return math.Sqrt(x) }
func sinf(x float64) float64  { return math.Sin(x) }

// Directivity models the angular radiation pattern of a sound source
// as a function of frequency. Gain returns the amplitude factor (<= 1,
// with 1 on-axis) for a path leaving the source at offAxisDeg degrees
// from its facing direction, in the band centered at freq Hz.
type Directivity interface {
	Gain(freq, offAxisDeg float64) float64
}

// HumanDirectivity models human speech radiation after Monson et
// al. [51]: low frequencies radiate nearly omnidirectionally while high
// frequencies are strongly beamed forward by the mouth/head geometry
// (roughly -18 dB behind the head at 8 kHz, only ~-2 dB at 250 Hz).
type HumanDirectivity struct {
	// LowFreq and HighFreq bound the transition from omnidirectional
	// to fully directional radiation. Zero values select the standard
	// 400 Hz / 12 kHz transition.
	LowFreq, HighFreq float64
}

var _ Directivity = HumanDirectivity{}

// Gain implements Directivity.
func (d HumanDirectivity) Gain(freq, offAxisDeg float64) float64 {
	lo, hi := d.LowFreq, d.HighFreq
	if lo == 0 {
		lo = 250
	}
	if hi == 0 {
		hi = 10000
	}
	w := directionalityWeight(freq, lo, hi)
	theta := geom.Deg2Rad(offAxisDeg)
	// Cardioid-family pattern with a residual floor: heads diffract,
	// they don't null. The exponent sets the rear attenuation (~-21 dB
	// at 180°, ~-7 dB at 90° in the fully directional limit), matching
	// the high-band front/back differences Monson et al. report.
	card := 0.6 + 0.4*math.Cos(theta)
	pattern := math.Pow(card, 1.5)
	return 1 - w*(1-pattern)
}

// LoudspeakerDirectivity models a piston driver in a box: broadly
// similar to the human pattern but with a stronger rear null, an
// earlier transition and extra beaming at the top of the range. The
// contrast between this pattern and the human one is one of the cues
// the replayed-audio experiments exercise.
type LoudspeakerDirectivity struct{}

var _ Directivity = LoudspeakerDirectivity{}

// Gain implements Directivity.
func (LoudspeakerDirectivity) Gain(freq, offAxisDeg float64) float64 {
	w := directionalityWeight(freq, 250, 8000)
	theta := geom.Deg2Rad(offAxisDeg)
	card := 0.5 + 0.5*math.Cos(theta)
	pattern := 0.05 + 0.95*math.Pow(card, 2)
	return 1 - w*(1-pattern)
}

// OmniDirectivity radiates uniformly; used for ambient noise sources
// and as an ablation baseline.
type OmniDirectivity struct{}

var _ Directivity = OmniDirectivity{}

// Gain implements Directivity.
func (OmniDirectivity) Gain(float64, float64) float64 { return 1 }

// directionalityWeight maps frequency to [0, 1]: 0 below lo (omni),
// 1 above hi (fully patterned), log-linear in between.
func directionalityWeight(freq, lo, hi float64) float64 {
	if freq <= lo {
		return 0
	}
	if freq >= hi {
		return 1
	}
	return math.Log(freq/lo) / math.Log(hi/lo)
}

// DirectivityFactor returns the energy directivity factor Q of the
// pattern in the band centered at freq: the ratio of on-axis intensity
// to the spherical average. It is used to scale the diffuse tail (an
// omnidirectional room integrates the source's total radiated power,
// not its on-axis power). Computed by numeric integration over the
// sphere assuming an axisymmetric pattern.
func DirectivityFactor(d Directivity, freq float64) float64 {
	const steps = 90
	var integral float64
	for i := 0; i < steps; i++ {
		theta := (float64(i) + 0.5) * math.Pi / steps
		g := d.Gain(freq, geom.Rad2Deg(theta))
		integral += g * g * math.Sin(theta) * (math.Pi / steps)
	}
	// Mean of g^2 over the sphere = integral/2; Q = g_axis^2 / mean.
	mean := integral / 2
	if mean <= 0 {
		return 1
	}
	axis := d.Gain(freq, 0)
	return axis * axis / mean
}
