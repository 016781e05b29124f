package core

import (
	"context"
	"math"
	"testing"
	"time"

	"headtalk/internal/features"
	"headtalk/internal/registry"
)

// decisionsEqual compares every field of two decisions, scores bit
// for bit.
func decisionsEqual(t *testing.T, label string, want, got Decision) {
	t.Helper()
	w, g := want, got
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if w != g || !sameBits(w.LiveScore, g.LiveScore) || !sameBits(w.FacingScore, g.FacingScore) ||
		!sameBits(w.FingerprintScore, g.FingerprintScore) {
		t.Fatalf("%s: want %+v, got %+v", label, want, got)
	}
}

// Steady-state ProcessWake — an open session, warm per-worker arena —
// must not allocate at all. This is the pin the serving throughput
// work rests on: the validate + health + session bookkeeping path runs
// allocation-free end to end.
func TestProcessWakeSessionSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)
	p := sys.NewPreprocessor()
	ctx := context.Background()

	// Open the session with a facing decision, then warm the arena.
	rec := markedRecording(true, 41)
	d, err := sys.ProcessWakeWith(ctx, p, rec)
	if err != nil || !d.Accepted {
		t.Fatalf("warm-up decision %+v, %v", d, err)
	}
	follow := markedRecording(false, 42)
	if d, err = sys.ProcessWakeWith(ctx, p, follow); err != nil || d.Reason != ReasonSessionActive {
		t.Fatalf("session follow-up %+v, %v", d, err)
	}

	allocs := testing.AllocsPerRun(10, func() {
		d, err := sys.ProcessWakeWith(ctx, p, follow)
		if err != nil || d.Reason != ReasonSessionActive {
			t.Fatalf("steady-state decision %+v, %v", d, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ProcessWake allocated %.1f times per run, want 0", allocs)
	}
}

// The full orientation path — band-pass, GCC/SRP features, SVM scoring
// — must also be allocation-free once the arena is warm. Sessions are
// disabled (negative timeout) so every decision runs the whole gate.
func TestProcessWakeOrientationPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	featCfg := features.DefaultConfig(13, 48000)
	sys, err := NewSystem(Config{
		SessionTimeout: -time.Second, // sessions expire instantly
		Clock:          clock.Now,
		Features:       featCfg,
		Models:         registry.NewStatic(registry.ModelSet{Orientation: trainedOrientation(t, featCfg)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)
	p := sys.NewPreprocessor()
	ctx := context.Background()

	rec := markedRecording(true, 43)
	d, perr := sys.ProcessWakeWith(ctx, p, rec) // warm-up
	if perr != nil || !d.FacingRan {
		t.Fatalf("warm-up decision %+v, %v", d, perr)
	}
	allocs := testing.AllocsPerRun(10, func() {
		d, err := sys.ProcessWakeWith(ctx, p, rec)
		if err != nil || !d.FacingRan {
			t.Fatalf("orientation decision %+v, %v", d, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("orientation-path ProcessWake allocated %.1f times per run, want 0", allocs)
	}
}
