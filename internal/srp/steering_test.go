package srp

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/dsp"
	"headtalk/internal/geom"
)

// steeredPowerMap evaluates the far-field SRP-PHAT power for each
// candidate azimuth (degrees): for a plane wave from azimuth theta, the
// expected pair delay is (p_i - p_j)·u(theta)/c, and the steered power
// is the sum of each pair's GCC at that (fractionally interpolated)
// lag. It is the oracle that checks the pair lags against the array
// geometry.
func steeredPowerMap(positions []geom.Vec3, pairs []PairGCC, maxLag int, fs, c float64, azimuthsDeg []float64) []float64 {
	out := make([]float64, len(azimuthsDeg))
	for ai, az := range azimuthsDeg {
		u := geom.HeadingVec(az)
		var power float64
		for _, p := range pairs {
			// With channel i receiving s(t - d_i), the GCC
			// r[k] = sum_n ch_i[n+k]·ch_j[n] peaks at k = d_i - d_j.
			// A wave from azimuth az gives d_i = D - p_i·u/c, so the
			// expected peak lag is -(p_i - p_j)·u/c.
			d := positions[p.I].Sub(positions[p.J])
			lag := -d.Dot(u) / c * fs
			power += interpLag(p.R, maxLag, lag)
		}
		out[ai] = power
	}
	return out
}

// interpLag reads a GCC curve (lags -maxLag..maxLag) at a fractional
// lag with linear interpolation, clamping to the window.
func interpLag(r []float64, maxLag int, lag float64) float64 {
	pos := lag + float64(maxLag)
	if pos <= 0 {
		return r[0]
	}
	if pos >= float64(len(r)-1) {
		return r[len(r)-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return r[lo]*(1-frac) + r[lo+1]*frac
}

// TestSteeredPowerMapDoA simulates a plane wave from a known azimuth
// over a 4-mic circular array and checks that steering the AllPairs
// GCCs recovers the direction.
func TestSteeredPowerMapDoA(t *testing.T) {
	const (
		fs = 48000.0
		c  = 340.0
	)
	radius := 0.0325
	positions := []geom.Vec3{
		{X: radius}, {Y: radius}, {X: -radius}, {Y: -radius},
	}
	trueAz := 30.0
	u := geom.HeadingVec(trueAz) // propagation: wave arrives FROM this azimuth
	rng := rand.New(rand.NewPCG(17, 18))
	n := 8192
	src := make([]float64, n+64)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	lp, err := dsp.NewButterworthLowPass(4, 6000, fs)
	if err != nil {
		t.Fatal(err)
	}
	src = lp.Apply(src)
	channels := make([][]float64, len(positions))
	for mi, p := range positions {
		// A mic further along u hears the wave earlier.
		adv := p.Dot(u) / c * fs
		channels[mi] = fractionalDelay(src, 32-adv)[:n]
	}
	maxLag := 10
	pairs, err := new(Workspace).AllPairs(channels, PairOptions{MaxLag: maxLag, PHAT: true, SampleRate: fs, BandLo: 100, BandHi: 8000})
	if err != nil {
		t.Fatal(err)
	}
	azimuths := make([]float64, 360)
	for i := range azimuths {
		azimuths[i] = float64(i) - 180
	}
	est := azimuths[dsp.ArgMax(steeredPowerMap(positions, pairs, maxLag, fs, c, azimuths))]
	if diff := math.Abs(geom.NormalizeDeg(est - trueAz)); diff > 10 {
		t.Errorf("estimated DoA %g°, want %g±10°", est, trueAz)
	}
}

// fractionalDelay delays x by d samples with linear interpolation.
func fractionalDelay(x []float64, d float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		pos := float64(i) - d
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo >= 0 && lo+1 < len(x) {
			out[i] = x[lo]*(1-frac) + x[lo+1]*frac
		}
	}
	return out
}

func TestInterpLagClamps(t *testing.T) {
	r := []float64{1, 2, 3}
	if got := interpLag(r, 1, -5); got != 1 {
		t.Errorf("below window: %g", got)
	}
	if got := interpLag(r, 1, 5); got != 3 {
		t.Errorf("above window: %g", got)
	}
	if got := interpLag(r, 1, -0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("interpolated: %g, want 1.5", got)
	}
}
