package features

import (
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
)

// testRecording builds a 4-channel noise recording.
func testRecording(n int, seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 1))
	rec := audio.NewRecording(48000, 4, n)
	for _, ch := range rec.Channels {
		for i := range ch {
			ch[i] = rng.NormFloat64()
		}
	}
	return rec
}

func TestExtractVectorLayout(t *testing.T) {
	// For 4 channels and maxLag 13 the documented layout is 267 dims:
	// 6×27 GCC + 6 TDoA + 30 stats + 3 peaks + 5 SRP stats + 1 HLBR +
	// 60 chunk stats.
	rec := testRecording(20000, 1)
	cfg := DefaultConfig(13, 48000)
	feats, err := Extract(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 267 {
		t.Fatalf("feature vector length %d, want 267", len(feats))
	}
}

func TestExtractD3Layout(t *testing.T) {
	// maxLag 10 => 6×21 + 6 + 30 + 3 + 5 + 61 = 231.
	rec := testRecording(20000, 2)
	cfg := DefaultConfig(10, 48000)
	feats, err := Extract(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 6*21 + 6 + 30 + 3 + 5 + 61
	if len(feats) != want {
		t.Fatalf("feature vector length %d, want %d", len(feats), want)
	}
}

func TestExtractGCCOnly(t *testing.T) {
	rec := testRecording(20000, 3)
	cfg := DefaultConfig(13, 48000)
	cfg.GCCOnly = true
	feats, err := Extract(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 168 {
		t.Fatalf("GCC-only length %d, want 168", len(feats))
	}
	// And it must be a prefix of the full vector (the DoV-baseline
	// slicing relies on this).
	full, err := Extract(testRecording(20000, 3), DefaultConfig(13, 48000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range feats {
		if feats[i] != full[i] {
			t.Fatalf("GCC-only is not a prefix of the full vector at %d", i)
		}
	}
}

func TestExtractFeatureGroupToggles(t *testing.T) {
	rec := testRecording(20000, 4)
	cfg := DefaultConfig(13, 48000)
	cfg.DisableDirectivityFeatures = true
	reverbOnly, err := Extract(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reverbOnly) != 206 {
		t.Fatalf("reverb-only length %d, want 206", len(reverbOnly))
	}
	cfg = DefaultConfig(13, 48000)
	cfg.DisableReverbFeatures = true
	dirOnly, err := Extract(rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirOnly) != 61 {
		t.Fatalf("directivity-only length %d, want 61", len(dirOnly))
	}
	cfg.DisableDirectivityFeatures = true
	if _, err := Extract(rec, cfg); err == nil {
		t.Error("expected error with all groups disabled")
	}
}

// Config.Dim predicts the length of every vector Extract assembles,
// across channel counts, lag windows and feature-group toggles.
func TestDimMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	cfgs := []Config{DefaultConfig(13, 48000), DefaultConfig(21, 48000)}
	for _, edit := range []func(*Config){
		func(c *Config) { c.GCCOnly = true },
		func(c *Config) { c.DisableDirectivityFeatures = true },
		func(c *Config) { c.DisableReverbFeatures = true },
		func(c *Config) { c.LowBandChunks = 7 },
	} {
		c := DefaultConfig(13, 48000)
		edit(&c)
		cfgs = append(cfgs, c)
	}
	for _, nch := range []int{2, 3, 4, 7} {
		rec := audio.NewRecording(48000, nch, 4000)
		for _, ch := range rec.Channels {
			for i := range ch {
				ch[i] = rng.NormFloat64()
			}
		}
		for _, cfg := range cfgs {
			feats, err := Extract(rec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := cfg.Dim(nch); got != len(feats) {
				t.Errorf("%d channels, %+v: Dim %d, Extract %d", nch, cfg, got, len(feats))
			}
		}
	}
}

func TestExtractValidation(t *testing.T) {
	rec := testRecording(20000, 5)
	cfg := DefaultConfig(0, 48000)
	if _, err := Extract(rec, cfg); err == nil {
		t.Error("expected error for zero MaxLag")
	}
	mono := audio.NewRecording(48000, 1, 1000)
	if _, err := Extract(mono, DefaultConfig(13, 48000)); err == nil {
		t.Error("expected error for single channel")
	}
}

func TestFocusWindowSelectsEnergy(t *testing.T) {
	rec := audio.NewRecording(48000, 2, 60000)
	// Energy burst in samples 40000..50000.
	rng := rand.New(rand.NewPCG(6, 7))
	for _, ch := range rec.Channels {
		for i := 40000; i < 50000; i++ {
			ch[i] = rng.NormFloat64()
		}
	}
	var mono []float64
	start, length := FocusBounds(rec, 8192, &mono)
	if length != 8192 {
		t.Fatalf("window length %d", length)
	}
	var energy float64
	for _, v := range rec.Channels[0][start : start+length] {
		energy += v * v
	}
	if energy < 1000 {
		t.Errorf("focus window missed the energy burst (E=%g)", energy)
	}
}

func TestFocusWindowShortInputUntouched(t *testing.T) {
	rec := testRecording(1000, 8)
	var mono []float64
	if start, length := FocusBounds(rec, 8192, &mono); start != 0 || length != 1000 {
		t.Error("short input should pass through")
	}
}

func TestFocusWindowDisabled(t *testing.T) {
	rec := testRecording(30000, 9)
	var mono []float64
	if start, length := FocusBounds(rec, -1, &mono); start != 0 || length != 30000 {
		t.Error("negative window should disable cropping")
	}
}

func TestExtractDeterministic(t *testing.T) {
	cfg := DefaultConfig(13, 48000)
	a, err := Extract(testRecording(20000, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Extract(testRecording(20000, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic feature %d", i)
		}
	}
}
