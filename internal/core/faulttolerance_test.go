package core

import (
	"context"
	"math"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/features"
	"headtalk/internal/orientation"
	"headtalk/internal/registry"
)

// Fail-closed fault-tolerance tests: every malformed or degraded input
// must surface as a *reject* with a typed reason — never an accept, in
// any mode. These pin the invariant the serving layer's chaos tests
// rely on.

// trainedFallback trains an orientation model on 3-channel features
// (channels 0-2 of the marked recordings) for the degraded-array
// fallback path.
func trainedFallback(t *testing.T, cfg features.Config, keep []int) *orientation.Model {
	t.Helper()
	var x [][]float64
	var y []int
	for i := 0; i < 14; i++ {
		facing := i%2 == 1
		rec := markedRecording(facing, uint64(i))
		sel, err := rec.Select(keep)
		if err != nil {
			t.Fatal(err)
		}
		f, err := features.Extract(sel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		x = append(x, f)
		label := orientation.LabelNonFacing
		if facing {
			label = orientation.LabelFacing
		}
		y = append(y, label)
	}
	m, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFailClosedOnBadInput(t *testing.T) {
	clipped := markedRecording(true, 31)
	for i, v := range clipped.Channels[0] {
		if v > 1 {
			clipped.Channels[0][i] = 1
		} else if v < -1 {
			clipped.Channels[0][i] = -1
		}
	}
	nan := markedRecording(true, 32)
	nan.Channels[1][100] = math.NaN()
	inf := markedRecording(true, 33)
	inf.Channels[2][200] = math.Inf(-1)
	ragged := markedRecording(true, 34)
	ragged.Channels[3] = ragged.Channels[3][:1000]
	wrongRate := markedRecording(true, 35)
	wrongRate.SampleRate = 44100

	cases := []struct {
		name string
		rec  *audio.Recording
		want audio.BadInputReason
	}{
		{"nil recording", nil, audio.BadNil},
		{"no channels", &audio.Recording{SampleRate: 48000}, audio.BadNoChannels},
		{"empty channels", audio.NewRecording(48000, 4, 0), audio.BadEmpty},
		{"ragged channels", ragged, audio.BadRagged},
		{"NaN samples", nan, audio.BadNonFinite},
		{"Inf samples", inf, audio.BadNonFinite},
		{"clipped channel", clipped, audio.BadClipped},
		{"truncated capture", audio.NewRecording(48000, 4, 100), audio.BadTooShort},
		{"wrong sample rate", wrongRate, audio.BadSampleRate},
	}
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	for _, mode := range []Mode{ModeNormal, ModeMute, ModeHeadTalk} {
		sys.SetMode(mode)
		for _, tc := range cases {
			d, err := sys.ProcessWake(context.Background(), tc.rec)
			if d.Accepted {
				t.Fatalf("%s/%s: ACCEPTED malformed input %+v", mode, tc.name, d)
			}
			if d.Reason != ReasonBadInput {
				t.Fatalf("%s/%s: reason %q, want ReasonBadInput", mode, tc.name, d.Reason)
			}
			bad, ok := audio.AsBadInput(err)
			if !ok {
				t.Fatalf("%s/%s: err %v does not chain to ErrBadInput", mode, tc.name, err)
			}
			if bad.Reason != tc.want {
				t.Fatalf("%s/%s: bad-input reason %s, want %s", mode, tc.name, bad.Reason, tc.want)
			}
		}
	}
}

func TestDegradedBelowMinChannelsFailsClosed(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)

	// Sanity: the facing recording is accepted with a healthy array.
	rec := markedRecording(true, 40)
	d, err := sys.ProcessWake(context.Background(), rec)
	if err != nil || !d.Accepted {
		t.Fatalf("healthy-array facing decision %+v, err %v", d, err)
	}
	clock.Advance(time.Minute) // expire the session the accept opened

	// Kill 3 of 4 channels: 1 healthy survivor < MinChannels (2).
	for _, c := range []int{0, 2, 3} {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = 0
		}
	}
	d, err = sys.ProcessWake(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonDegraded {
		t.Fatalf("degraded decision %+v, want ReasonDegraded reject", d)
	}
	if d.DegradedChannels != 3 {
		t.Fatalf("DegradedChannels = %d, want 3", d.DegradedChannels)
	}
}

func TestDegradedWithoutFallbackModelFailsClosed(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)

	// One dead channel: 3 healthy ≥ MinChannels, but the primary model
	// expects 4-channel features and no 3-channel fallback is enrolled.
	rec := markedRecording(true, 41)
	for i := range rec.Channels[1] {
		rec.Channels[1][i] = 0
	}
	d, err := sys.ProcessWake(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonDegraded {
		t.Fatalf("decision %+v, want ReasonDegraded reject without fallback", d)
	}
	if d.DegradedChannels != 1 {
		t.Fatalf("DegradedChannels = %d, want 1", d.DegradedChannels)
	}
}

func TestDegradedFallbackModelKeepsDeciding(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	featCfg := features.DefaultConfig(13, 48000)
	cfg := Config{
		SessionTimeout: 10 * time.Second,
		Clock:          clock.Now,
		Features:       featCfg,
		Models: registry.NewStatic(registry.ModelSet{
			Orientation: trainedOrientation(t, featCfg),
			OrientationByChannels: map[int]*orientation.Model{
				3: trainedFallback(t, featCfg, []int{0, 1, 2}),
			},
		}),
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)

	// Channel 3 dies; the 3-channel fallback must still separate facing
	// from non-facing instead of failing closed.
	facing := markedRecording(true, 43)
	for i := range facing.Channels[3] {
		facing.Channels[3][i] = 0
	}
	d, err := sys.ProcessWake(context.Background(), facing)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.Reason != ReasonAccepted {
		t.Fatalf("facing decision on degraded array %+v, want accept via fallback", d)
	}
	if d.DegradedChannels != 1 || !d.FacingRan {
		t.Fatalf("decision detail %+v", d)
	}
	clock.Advance(time.Minute) // expire the session the accept opened

	away := markedRecording(false, 44)
	for i := range away.Channels[3] {
		away.Channels[3][i] = 0
	}
	d, err = sys.ProcessWake(context.Background(), away)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonNotFacing {
		t.Fatalf("non-facing decision on degraded array %+v, want ReasonNotFacing", d)
	}
}

func TestRepairNonFiniteRecoversDecision(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	featCfg := features.DefaultConfig(13, 48000)
	cfg := Config{
		SessionTimeout:  10 * time.Second,
		Clock:           clock.Now,
		Features:        featCfg,
		Models:          registry.NewStatic(registry.ModelSet{Orientation: trainedOrientation(t, featCfg)}),
		RepairNonFinite: true,
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)

	rec := markedRecording(true, 45)
	for _, i := range []int{10, 500, 9000} {
		rec.Channels[0][i] = math.NaN()
	}
	rec.Channels[2][700] = math.Inf(1)
	d, err := sys.ProcessWake(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("repaired facing decision %+v, want accept", d)
	}
	if d.RepairedSamples != 4 {
		t.Fatalf("RepairedSamples = %d, want 4", d.RepairedSamples)
	}
	// The caller's recording must be untouched (repair-on-copy).
	if !math.IsNaN(rec.Channels[0][10]) {
		t.Fatal("repair mutated the caller's recording")
	}
}
