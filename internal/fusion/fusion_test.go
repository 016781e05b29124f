package fusion

import (
	"errors"
	"math"
	"testing"

	"headtalk/internal/core"
	"headtalk/internal/mic"
)

func facing(id string, margin float64, channels, degraded int) ArrayReport {
	return ArrayReport{
		ArrayID:  id,
		Channels: channels,
		Decision: core.Decision{
			Accepted:         margin > 0,
			Reason:           core.ReasonAccepted,
			FacingRan:        true,
			FacingScore:      margin,
			LiveRan:          true,
			LiveScore:        0.9,
			DegradedChannels: degraded,
		},
	}
}

func TestFuseWeightedFacingVote(t *testing.T) {
	// A confident close array outvotes a weakly-contrary far one.
	d := Fuse([]ArrayReport{
		facing("near", 2.0, 4, 0),
		facing("far", -0.3, 4, 0),
	})
	if !d.Accepted || d.Reason != core.ReasonAccepted {
		t.Fatalf("fused: %+v", d)
	}
	if want := (2.0 - 0.3) / 2; math.Abs(d.FusedFacing-want) > 1e-12 {
		t.Errorf("fused margin %g, want %g", d.FusedFacing, want)
	}
	if d.BestArray != "near" || d.ArraysUsed != 2 {
		t.Errorf("attribution: %+v", d)
	}

	// Flip the strong evidence: the room rejects.
	d = Fuse([]ArrayReport{
		facing("near", -2.0, 4, 0),
		facing("far", 0.3, 4, 0),
	})
	if d.Accepted || d.Reason != core.ReasonNotFacing {
		t.Fatalf("contrary fused: %+v", d)
	}
}

func TestFuseDegradedDownWeighted(t *testing.T) {
	// The degraded array's wrong vote (3 of 4 channels dead, weight
	// 0.25) loses to the healthy array despite a bigger margin.
	d := Fuse([]ArrayReport{
		facing("healthy", 1.0, 4, 0),
		facing("broken", -2.0, 4, 3),
	})
	if !d.Accepted {
		t.Fatalf("degraded array overruled healthy one: %+v", d)
	}
	if want := (1.0*1 + 0.25*-2.0) / 1.25; math.Abs(d.FusedFacing-want) > 1e-12 {
		t.Errorf("fused margin %g, want %g", d.FusedFacing, want)
	}

	// Below minWeight the array is dropped entirely.
	d = Fuse([]ArrayReport{
		facing("healthy", 1.0, 4, 0),
		facing("dead", -5.0, 100, 100),
	})
	if !d.Accepted || d.ArraysUsed != 1 || d.ArraysDropped != 1 {
		t.Fatalf("dead array not dropped: %+v", d)
	}
}

func TestFuseFailsClosed(t *testing.T) {
	// No reports at all.
	if d := Fuse(nil); d.Accepted || d.Reason != core.ReasonDegraded {
		t.Fatalf("empty fuse: %+v", d)
	}
	// Every array errored or hard-failed.
	d := Fuse([]ArrayReport{
		{ArrayID: "a", Err: errors.New("boom")},
		{ArrayID: "b", Decision: core.Decision{Reason: core.ReasonBadInput}},
		{ArrayID: "c", Decision: core.Decision{Reason: core.ReasonPanic}},
	})
	if d.Accepted || d.Reason != core.ReasonDegraded || d.ArraysDropped != 3 {
		t.Fatalf("all-failed fuse: %+v", d)
	}
	// Arrays decided but none ran orientation: reject, don't accept.
	d = Fuse([]ArrayReport{
		{ArrayID: "a", Decision: core.Decision{Reason: core.ReasonNoOrientation}},
	})
	if d.Accepted || d.Reason != core.ReasonNoOrientation {
		t.Fatalf("no-orientation fuse: %+v", d)
	}
}

func TestFuseLivenessGate(t *testing.T) {
	a := facing("a", 1.5, 4, 0)
	a.Decision.LiveScore = 0.1
	b := facing("b", 1.0, 4, 0)
	b.Decision.LiveScore = 0.2
	d := Fuse([]ArrayReport{a, b})
	if d.Accepted || d.Reason != core.ReasonNotLive {
		t.Fatalf("mechanical audio accepted: %+v", d)
	}
	if !d.LiveRan || math.Abs(d.FusedLive-0.15) > 1e-12 {
		t.Errorf("fused live: %+v", d)
	}
}

func TestFusePolicyShortCircuits(t *testing.T) {
	muted := ArrayReport{ArrayID: "m", Decision: core.Decision{Reason: core.ReasonMuted}}
	d := Fuse([]ArrayReport{facing("a", 3.0, 4, 0), muted})
	if d.Accepted || d.Reason != core.ReasonMuted {
		t.Fatalf("muted room accepted: %+v", d)
	}
	session := ArrayReport{ArrayID: "s", Decision: core.Decision{Accepted: true, Reason: core.ReasonSessionActive}}
	d = Fuse([]ArrayReport{session, facing("a", -3.0, 4, 0)})
	if !d.Accepted || d.Reason != core.ReasonSessionActive {
		t.Fatalf("open session ignored: %+v", d)
	}
}

func TestHealthWeight(t *testing.T) {
	if w := HealthWeight(mic.ArrayHealth{}); w != 1 {
		t.Errorf("unknown health weight %g, want 1", w)
	}
	h := mic.ArrayHealth{Channels: make([]mic.ChannelHealth, 4), Healthy: []int{0, 2}}
	if w := HealthWeight(h); w != 0.5 {
		t.Errorf("half-healthy weight %g, want 0.5", w)
	}
	// Explicit weight overrides derivation.
	r := facing("x", 1, 4, 4)
	r.Weight = 0.75
	if w := r.weight(); w != 0.75 {
		t.Errorf("override weight %g", w)
	}
}
