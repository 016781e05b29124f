package features

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
)

func synthRecording(r *rand.Rand, nch, n int) *audio.Recording {
	rec := audio.NewRecording(48000, nch, n)
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = math.Sin(2*math.Pi*float64(i)/29.0+0.3*float64(c)) + 0.1*r.NormFloat64()
		}
	}
	return rec
}

func vectorsEqual(t *testing.T, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("feature count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("feature %d: want %g, got %g (not bit-identical)", i, want[i], got[i])
		}
	}
}

// One warm workspace reused across every feature-group configuration
// must reproduce Extract's fresh workspace bit for bit: no scratch
// left over from an earlier capture or config may leak into a vector.
func TestWorkspaceExtractMatchesExtract(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 0))
	recs := []*audio.Recording{
		synthRecording(r, 4, 4000),
		synthRecording(r, 2, 1500),
		synthRecording(r, 4, 50000), // longer than the analysis window: focus search runs
	}
	base := DefaultConfig(27, 48000)
	configs := []Config{
		base,
		func() Config { c := base; c.GCCOnly = true; return c }(),
		func() Config { c := base; c.DisableReverbFeatures = true; return c }(),
		func() Config { c := base; c.DisableDirectivityFeatures = true; return c }(),
		func() Config { c := base; c.UsePHAT = false; c.AnalysisWindow = -1; return c }(),
		func() Config { c := base; c.AnalysisWindow = 2048; return c }(),
	}
	var ws Workspace
	for ci, cfg := range configs {
		for ri, rec := range recs {
			want, err := Extract(rec, cfg)
			if err != nil {
				t.Fatalf("config %d rec %d: %v", ci, ri, err)
			}
			got, err := ws.Extract(rec, cfg)
			if err != nil {
				t.Fatalf("config %d rec %d (workspace): %v", ci, ri, err)
			}
			vectorsEqual(t, want, got)
		}
	}
}

func TestWorkspaceExtractErrors(t *testing.T) {
	var ws Workspace
	cfg := DefaultConfig(27, 48000)
	if _, err := ws.Extract(audio.NewRecording(48000, 1, 100), cfg); err == nil {
		t.Fatal("single channel: want error")
	}
	bad := cfg
	bad.MaxLag = 0
	if _, err := ws.Extract(audio.NewRecording(48000, 4, 100), bad); err == nil {
		t.Fatal("MaxLag=0: want error")
	}
	disabled := cfg
	disabled.DisableReverbFeatures = true
	disabled.DisableDirectivityFeatures = true
	if _, err := ws.Extract(synthRecording(rand.New(rand.NewPCG(1, 0)), 4, 500), disabled); err == nil {
		t.Fatal("all groups disabled: want error")
	}
}

// Steady-state extraction through a warm workspace must not allocate:
// the serving arenas' zero-alloc ProcessWake pin builds on this.
func TestWorkspaceExtractAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	r := rand.New(rand.NewPCG(13, 0))
	rec := synthRecording(r, 4, 48000) // > analysis window: focus search included
	cfg := DefaultConfig(27, 48000)
	var ws Workspace
	if _, err := ws.Extract(rec, cfg); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ws.Extract(rec, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm workspace Extract allocated %.1f times per run, want 0", allocs)
	}
}
