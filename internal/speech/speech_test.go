package speech

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/dsp"
)

// spectralRolloff returns the frequency below which frac (e.g. 0.85)
// of the total spectral magnitude of x lies.
func spectralRolloff(x []float64, fs, frac float64) float64 {
	mags := dsp.MagnitudeInto(nil, dsp.HalfSpectrum(x))
	var total float64
	for _, m := range mags {
		total += m
	}
	if total == 0 {
		return 0
	}
	target := frac * total
	var acc float64
	for i, m := range mags {
		acc += m
		if acc >= target {
			return float64(i) * fs / float64(len(x))
		}
	}
	return fs / 2
}

func TestSpectralRolloff(t *testing.T) {
	const fs = 8000.0
	x := make([]float64, 4096)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 1000 * float64(i) / fs)
	}
	r := spectralRolloff(x, fs, 0.85)
	if math.Abs(r-1000) > 100 {
		t.Errorf("rolloff = %g, want ~1000 for a pure tone", r)
	}
	if got := spectralRolloff(make([]float64, 256), fs, 0.85); got != 0 {
		t.Errorf("silent rolloff = %g", got)
	}
}

func TestLookupPhoneme(t *testing.T) {
	p, ok := LookupPhoneme("AH")
	if !ok {
		t.Fatal("AH missing from inventory")
	}
	if p.Class != Vowel || p.Formants[0] != 640 {
		t.Errorf("AH = %+v", p)
	}
	// Default bandwidths filled in.
	if p.Bandwidth[0] == 0 {
		t.Error("default bandwidths not applied")
	}
	if _, ok := LookupPhoneme("XX"); ok {
		t.Error("unknown phoneme should not resolve")
	}
}

func TestWakeWordScriptsResolve(t *testing.T) {
	for _, w := range WakeWords() {
		if len(w.Phonemes) == 0 {
			t.Errorf("%s: empty script", w.Name)
		}
		for _, sym := range w.Phonemes {
			if _, ok := LookupPhoneme(sym); !ok {
				t.Errorf("%s: unknown phoneme %q", w.Name, sym)
			}
		}
	}
}

func TestWakeWordByName(t *testing.T) {
	w, ok := WakeWordByName("Computer")
	if !ok || w.Name != "Computer" {
		t.Error("Computer not found")
	}
	if _, ok := WakeWordByName("Alexa"); ok {
		t.Error("unexpected wake word found")
	}
}

func TestSynthesizeBasicShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := Synthesize(WordComputer, DefaultVoice(), 48000, rng)
	if buf.SampleRate != 48000 {
		t.Fatalf("sample rate %g", buf.SampleRate)
	}
	dur := float64(len(buf.Samples)) / buf.SampleRate
	if dur < 0.3 || dur > 1.5 {
		t.Errorf("'Computer' duration %g s", dur)
	}
	if peak := dsp.MaxAbs(buf.Samples); math.Abs(peak-0.9) > 1e-9 {
		t.Errorf("peak %g, want 0.9 normalization", peak)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(WordAmazon, DefaultVoice(), 48000, rand.New(rand.NewPCG(5, 6)))
	b := Synthesize(WordAmazon, DefaultVoice(), 48000, rand.New(rand.NewPCG(5, 6)))
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("length mismatch")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("non-deterministic at sample %d", i)
		}
	}
}

func TestSynthesizeSpectralShape(t *testing.T) {
	// Paper Fig. 3a: live speech concentrates energy in 200 Hz–4 kHz
	// with genuine (but decaying) content above 4 kHz.
	rng := rand.New(rand.NewPCG(3, 4))
	buf := Synthesize(WordComputer, DefaultVoice(), 48000, rng)
	spec := dsp.HalfSpectrum(buf.Samples)
	n := len(buf.Samples)
	core := dsp.BandEnergy(spec, n, 48000, 200, 4000)
	high := dsp.BandEnergy(spec, n, 48000, 4000, 12000)
	vhigh := dsp.BandEnergy(spec, n, 48000, 16000, 23000)
	if core <= high {
		t.Errorf("core band %g should dominate high band %g", core, high)
	}
	if high <= 0 {
		t.Error("no energy above 4 kHz — fricatives/bursts missing")
	}
	if high <= vhigh*2 {
		t.Errorf("4-12 kHz (%g) should well exceed 16-23 kHz (%g)", high, vhigh)
	}
}

// estimatePitch returns the autocorrelation-based F0 estimate of the
// strongest 4096-sample window of x.
func estimatePitch(x []float64, fs float64) float64 {
	const win = 4096
	best, bestE := 0, -1.0
	for start := 0; start+win <= len(x); start += win / 2 {
		e := dsp.RMS(x[start : start+win])
		if e > bestE {
			bestE = e
			best = start
		}
	}
	seg := x[best : best+win]
	minLag := int(fs / 300)
	maxLag := int(fs / 70)
	bestLag, bestCorr := minLag, -1.0
	for lag := minLag; lag <= maxLag; lag++ {
		var corr float64
		for i := 0; i+lag < win; i++ {
			corr += seg[i] * seg[i+lag]
		}
		if corr > bestCorr {
			bestCorr = corr
			bestLag = lag
		}
	}
	return fs / float64(bestLag)
}

func TestSynthesizeVoicePitch(t *testing.T) {
	rng1 := rand.New(rand.NewPCG(7, 8))
	rng2 := rand.New(rand.NewPCG(7, 8))
	lowV := DefaultVoice()
	lowV.BasePitch = 90
	highV := DefaultVoice()
	highV.BasePitch = 220
	low := Synthesize(WordComputer, lowV, 48000, rng1)
	high := Synthesize(WordComputer, highV, 48000, rng2)
	lowF0 := estimatePitch(low.Samples, 48000)
	highF0 := estimatePitch(high.Samples, 48000)
	if lowF0 < 60 || lowF0 > 130 {
		t.Errorf("low voice F0 estimate %g, want ~90", lowF0)
	}
	if highF0 < 150 || highF0 > 280 {
		t.Errorf("high voice F0 estimate %g, want ~220", highF0)
	}
}

func TestSynthesizeUnknownPhonemeGraceful(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	w := WakeWord{Name: "weird", Phonemes: []string{"AH", "??", "IY"}}
	buf := Synthesize(w, DefaultVoice(), 48000, rng)
	if len(buf.Samples) == 0 {
		t.Fatal("synthesis failed on unknown phoneme")
	}
}

func TestRandomVoicePlausible(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 50; i++ {
		v := RandomVoice(rng)
		if v.BasePitch < 80 || v.BasePitch > 260 {
			t.Errorf("pitch %g out of range", v.BasePitch)
		}
		if v.FormantScale < 0.85 || v.FormantScale > 1.25 {
			t.Errorf("formant scale %g out of range", v.FormantScale)
		}
		if v.Rate <= 0 {
			t.Errorf("non-positive rate %g", v.Rate)
		}
	}
}

func TestRenderMechanicalFlattensHighBand(t *testing.T) {
	// Paper Fig. 3b/c: replayed audio has less high-band energy and a
	// flatter (more uniform) distribution above 4 kHz.
	rng := rand.New(rand.NewPCG(13, 14))
	dry := Synthesize(WordComputer, DefaultVoice(), 48000, rng)
	for _, profile := range ReplayProfiles() {
		replayed := RenderMechanical(dry, profile, rng)
		n := len(dry.Samples)
		drySpec := dsp.HalfSpectrum(dry.Samples)
		repSpec := dsp.HalfSpectrum(replayed.Samples)
		dryRatio := dsp.BandEnergy(drySpec, n, 48000, 6000, 14000) / dsp.BandEnergy(drySpec, n, 48000, 500, 4000)
		repRatio := dsp.BandEnergy(repSpec, n, 48000, 6000, 14000) / dsp.BandEnergy(repSpec, n, 48000, 500, 4000)
		if repRatio >= dryRatio {
			t.Errorf("%s: high/core ratio %g not reduced from %g", profile.Name, repRatio, dryRatio)
		}
		// Band-limiting pulls the spectral rolloff down.
		dryRoll := spectralRolloff(dry.Samples, 48000, 0.95)
		repRoll := spectralRolloff(replayed.Samples, 48000, 0.95)
		if repRoll >= dryRoll {
			t.Errorf("%s: rolloff %g Hz not reduced from %g Hz", profile.Name, repRoll, dryRoll)
		}
	}
}

func TestRenderMechanicalNormalized(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	dry := Synthesize(WordAmazon, DefaultVoice(), 48000, rng)
	rep := RenderMechanical(dry, SonySRSX5, rng)
	if peak := dsp.MaxAbs(rep.Samples); math.Abs(peak-0.9) > 1e-9 {
		t.Errorf("peak %g, want 0.9", peak)
	}
	if rep.SampleRate != dry.SampleRate {
		t.Error("sample rate changed")
	}
}

func TestReplayProfilesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range ReplayProfiles() {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.HighCutoff <= p.LowCutoff {
			t.Errorf("%s: inverted band", p.Name)
		}
	}
}
