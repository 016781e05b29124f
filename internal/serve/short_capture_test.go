package serve_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"headtalk"
	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/mic"
	"headtalk/internal/registry"
	"headtalk/internal/serve"
)

// servedSystem builds a HeadTalk-mode system over the committed served
// enrollment (orientation, spectral liveness, array fingerprint) on
// device D3.
func servedSystem(t *testing.T) *core.System {
	t.Helper()
	enr, err := headtalk.LoadEnrollment(filepath.Join("..", "core", "testdata", "served-enrollment"))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := enr.Registry(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	array, err := mic.DeviceByID("D3")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{Models: reg, Features: dataset.FeatureConfigFor(array)})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(core.ModeHeadTalk)
	return sys
}

// TestShortCaptureFloodKeepsBreakerClosed: a capture that passes input
// validation but is too short for the liveness gate to score is bad
// input, not an engine fault. A flood of them leaves the breaker
// closed, and the next well-formed capture is decided as it would be
// on an engine that never saw the flood.
func TestShortCaptureFloodKeepsBreakerClosed(t *testing.T) {
	eng, err := serve.NewEngine(serve.Config{System: servedSystem(t), Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewPCG(8, 9))
	// Twice the default breaker threshold. 480 samples is shorter than
	// one liveness frame; 1 200 and 2 049 run out of convnet frames.
	for i := 0; i < 16; i++ {
		short := audio.NewRecording(48000, 4, []int{480, 1200, 2049}[i%3])
		for _, ch := range short.Channels {
			for j := range ch {
				ch[j] = 0.05 * rng.NormFloat64()
			}
		}
		d, err := eng.Decide(ctx, short)
		var bad *audio.ErrBadInput
		if !errors.As(err, &bad) || bad.Reason != audio.BadTooShort || d.Reason != core.ReasonBadInput {
			t.Fatalf("short capture %d: decision %q, error %v; want a too_short bad-input reject", i, d.Reason.Slug(), err)
		}
	}
	if h := eng.HealthSnapshot(); h.Breaker != "closed" || h.ConsecutiveFailures != 0 {
		t.Fatalf("breaker %s after %d failures, want closed with none", h.Breaker, h.ConsecutiveFailures)
	}

	rec, err := dataset.CaptureRecording(dataset.NewGenerator(31), dataset.Condition{
		Room: "lab", Device: "D3", AngleDeg: 0, Distance: 1, Rep: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Decide(ctx, rec)
	if err != nil {
		t.Fatalf("well-formed capture after the flood: %v", err)
	}
	want, err := servedSystem(t).ProcessWake(ctx, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decision after the flood %+v, want %+v", got, want)
	}
}
