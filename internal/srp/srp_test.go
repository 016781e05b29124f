package srp

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/dsp"
)

// delayedPair returns two noise channels where a leads b by delay
// samples.
func delayedPair(n, delay int, seed uint64) (a, b []float64) {
	rng := rand.New(rand.NewPCG(seed, 1))
	src := make([]float64, n+delay)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	a = src[delay : n+delay] // a[n] = src[n+delay]: a hears it first
	b = src[:n]
	return a, b
}

func TestGCCPHATDelayPeak(t *testing.T) {
	for _, delay := range []int{0, 3, 9} {
		a, b := delayedPair(4096, delay, uint64(delay+1))
		r, err := gccPHAT(a, b, 13)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 27 {
			t.Fatalf("window length %d, want 27", len(r))
		}
		// a[n] = b[n+delay] => r[k]=Σ a[n+k] b[n] peaks at k with
		// a[n+k]=src[n+k+delay] aligning with b[n]=src[n] at k=-delay.
		peak := dsp.ArgMax(r) - 13
		if peak != -delay {
			t.Errorf("delay %d: peak at %d, want %d", delay, peak, -delay)
		}
	}
}

func TestGCCPHATPeakNormalized(t *testing.T) {
	a, b := delayedPair(4096, 5, 7)
	r, err := gccPHAT(a, b, 13)
	if err != nil {
		t.Fatal(err)
	}
	peak := dsp.Max(r)
	if peak < 0.7 || peak > 1.1 {
		t.Errorf("coherent peak %g, want ~1", peak)
	}
}

func TestGCCPHATAmplitudeInvariance(t *testing.T) {
	// PHAT whitens magnitude: scaling a channel must not change the
	// curve materially.
	a, b := delayedPair(4096, 4, 9)
	r1, err := gccPHAT(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(a))
	for i := range a {
		scaled[i] = 100 * a[i]
	}
	r2, err := gccPHAT(scaled, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if math.Abs(r1[i]-r2[i]) > 1e-9 {
			t.Fatalf("PHAT not amplitude invariant at lag %d", i)
		}
	}
}

func TestGCCPHATBandLimitSharpensNoisyPeak(t *testing.T) {
	// Add out-of-band noise; the band-limited GCC should recover a
	// higher peak than the full-band one.
	rng := rand.New(rand.NewPCG(11, 12))
	n := 8192
	const fs = 48000.0
	// In-band source: low-passed noise.
	lp, err := dsp.NewButterworthLowPass(4, 6000, fs)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, n+5)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	src = lp.Apply(src)
	a := append([]float64{}, src[5:]...)
	b := src[:n]
	// Independent high-band noise on each channel.
	hp, err := dsp.NewButterworthHighPass(4, 10000, fs)
	if err != nil {
		t.Fatal(err)
	}
	na := make([]float64, n)
	nb := make([]float64, n)
	for i := range na {
		na[i] = rng.NormFloat64() * 2
		nb[i] = rng.NormFloat64() * 2
	}
	na = hp.Apply(na)
	nb = hp.Apply(nb)
	for i := range a {
		a[i] += na[i]
		b[i] += nb[i]
	}
	full, err := gccPHAT(a, b, 13)
	if err != nil {
		t.Fatal(err)
	}
	banded, err := gccPHATBand(a, b, 13, fs, 100, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if dsp.Max(banded) <= dsp.Max(full) {
		t.Errorf("band-limited peak %g not sharper than full-band %g", dsp.Max(banded), dsp.Max(full))
	}
}

func TestGCCErrors(t *testing.T) {
	if _, err := gccPHAT([]float64{1, 2}, []float64{1}, 3); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := gccPHAT(nil, nil, 3); err == nil {
		t.Error("expected empty-channel error")
	}
	if _, err := gccPHAT([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("expected negative-lag error")
	}
}

func TestCrossCorrPHATlessDelayPeak(t *testing.T) {
	a, b := delayedPair(4096, 6, 13)
	r, err := crossCorrPHATless(a, b, 13)
	if err != nil {
		t.Fatal(err)
	}
	if peak := dsp.ArgMax(r) - 13; peak != -6 {
		t.Errorf("peak at %d, want -6", peak)
	}
	if m := dsp.Max(r); m < 0.7 || m > 1.3 {
		t.Errorf("normalized peak %g, want ~1", m)
	}
}

func TestAllPairsCount(t *testing.T) {
	channels := make([][]float64, 4)
	rng := rand.New(rand.NewPCG(15, 16))
	for i := range channels {
		channels[i] = make([]float64, 1024)
		for j := range channels[i] {
			channels[i][j] = rng.NormFloat64()
		}
	}
	pairs, err := new(Workspace).AllPairs(channels, PairOptions{MaxLag: 5, PHAT: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 6 {
		t.Fatalf("%d pairs for 4 channels, want 6", len(pairs))
	}
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p.I >= p.J {
			t.Errorf("pair (%d,%d) not ordered", p.I, p.J)
		}
		seen[[2]int{p.I, p.J}] = true
		if len(p.R) != 11 {
			t.Errorf("pair window %d, want 11", len(p.R))
		}
		if p.TDoA < -5 || p.TDoA > 5 {
			t.Errorf("TDoA %d outside window", p.TDoA)
		}
	}
	if len(seen) != 6 {
		t.Error("duplicate pairs")
	}
}

// TestSelectedPairsDegradedSubset covers the degraded-array path: the
// pair set recomputed over the surviving channels matches the same
// pairs of the full set bit for bit.
func TestSelectedPairsDegradedSubset(t *testing.T) {
	channels := make([][]float64, 4)
	rng := rand.New(rand.NewPCG(17, 18))
	for i := range channels {
		channels[i] = make([]float64, 1024)
		for j := range channels[i] {
			channels[i][j] = rng.NormFloat64()
		}
	}
	opt := PairOptions{MaxLag: 5, PHAT: true}
	// Channel 1 died: correlate only the survivors 0, 2 and 3.
	pairs, err := new(Workspace).AllPairs([][]float64{channels[0], channels[2], channels[3]}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("%d pairs for 3 survivors, want 3", len(pairs))
	}
	all, err := new(Workspace).AllPairs(channels, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Full-set pairs (0,2), (0,3), (2,3) in AllPairs order.
	for k, full := range []PairGCC{all[1], all[2], all[5]} {
		if len(pairs[k].R) != 11 {
			t.Errorf("pair window %d, want 11", len(pairs[k].R))
		}
		for i, v := range pairs[k].R {
			if math.Float64bits(v) != math.Float64bits(full.R[i]) {
				t.Fatalf("survivor pair %d differs from full-set pair (%d,%d)", k, full.I, full.J)
			}
		}
	}
}

func TestSRPSumsPairs(t *testing.T) {
	pairs := []PairGCC{
		{R: []float64{1, 2, 3}},
		{R: []float64{10, 20, 30}},
	}
	got := SRP(pairs)
	want := []float64{11, 22, 33}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SRP[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if SRP(nil) != nil {
		t.Error("SRP of no pairs should be nil")
	}
}
