package core

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/features"
	"headtalk/internal/orientation"
	"headtalk/internal/registry"
)

// fakeClock is a controllable time source.
type fakeClock struct {
	now time.Time
}

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// trainedOrientation builds a tiny model whose facing decision depends
// on a synthetic "marker": recordings built by markedRecording with
// facing=true produce a strong positive first GCC-feature pattern. We
// train on real extracted features from the two recording families so
// the full ProcessWake path runs.
func trainedOrientation(t *testing.T, cfg features.Config) *orientation.Model {
	t.Helper()
	var x [][]float64
	var y []int
	for i := 0; i < 14; i++ {
		facing := i%2 == 1
		rec := markedRecording(facing, uint64(i))
		f, err := features.Extract(rec, cfg)
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
	m, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// markedRecording builds a 4-channel recording whose inter-channel
// coherence differs by class: "facing" recordings share one source
// across channels with small delays (strong GCC peak); "non-facing"
// recordings use independent noise (no coherent peak).
func markedRecording(facing bool, seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 99))
	n := 24000
	rec := audio.NewRecording(48000, 4, n)
	if facing {
		src := make([]float64, n+8)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		for c := 0; c < 4; c++ {
			copy(rec.Channels[c], src[c:c+n])
			for i := range rec.Channels[c] {
				rec.Channels[c][i] += 0.1 * rng.NormFloat64()
			}
		}
	} else {
		for c := 0; c < 4; c++ {
			for i := range rec.Channels[c] {
				rec.Channels[c][i] = rng.NormFloat64()
			}
		}
	}
	return rec
}

func testSystem(t *testing.T, clock *fakeClock) *System {
	t.Helper()
	cfg := Config{
		SessionTimeout: 10 * time.Second,
		Clock:          clock.Now,
	}
	featCfg := features.DefaultConfig(13, 48000)
	cfg.Features = featCfg
	cfg.Models = registry.NewStatic(registry.ModelSet{Orientation: trainedOrientation(t, featCfg)})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestModeStrings(t *testing.T) {
	if ModeNormal.String() != "normal" || ModeMute.String() != "mute" || ModeHeadTalk.String() != "headtalk" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "unknown" {
		t.Error("unknown mode should say so")
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{SampleRate: 16000, BandpassHigh: 16000}); err == nil {
		t.Error("expected error for bandpass above Nyquist")
	}
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mode() != ModeNormal {
		t.Error("new system should start in Normal mode")
	}
}

func TestNormalModeAcceptsEverything(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	d, err := sys.ProcessWake(context.Background(), markedRecording(false, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.Reason != ReasonNormalMode {
		t.Errorf("normal mode decision %+v", d)
	}
}

func TestMuteModeRejectsEverything(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeMute)
	d, err := sys.ProcessWake(context.Background(), markedRecording(true, 2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonMuted {
		t.Errorf("mute mode decision %+v", d)
	}
}

func TestHeadTalkModeOrientationGate(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)

	d, err := sys.ProcessWake(context.Background(), markedRecording(true, 20))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.Reason != ReasonAccepted {
		t.Fatalf("facing recording rejected: %+v", d)
	}
	if !d.FacingRan {
		t.Error("orientation gate did not run")
	}
	sys.EndSession()

	d, err = sys.ProcessWake(context.Background(), markedRecording(false, 21))
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonNotFacing {
		t.Fatalf("non-facing recording accepted: %+v", d)
	}
}

func TestSessionSkipsFacingCheck(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)

	if _, err := sys.ProcessWake(context.Background(), markedRecording(true, 30)); err != nil {
		t.Fatal(err)
	}
	if !sys.SessionActive() {
		t.Fatal("session should open after a facing accept")
	}
	// A non-facing follow-up within the session is accepted.
	d, err := sys.ProcessWake(context.Background(), markedRecording(false, 31))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.Reason != ReasonSessionActive {
		t.Errorf("in-session follow-up %+v", d)
	}
	// After the timeout, facing is required again.
	clock.Advance(11 * time.Second)
	if sys.SessionActive() {
		t.Error("session should expire")
	}
	d, err = sys.ProcessWake(context.Background(), markedRecording(false, 32))
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Errorf("post-expiry non-facing accepted: %+v", d)
	}
}

func TestSetModeClosesSession(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)
	if _, err := sys.ProcessWake(context.Background(), markedRecording(true, 40)); err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk) // re-entering a mode resets the session
	if sys.SessionActive() {
		t.Error("SetMode should close the session")
	}
}

func TestNoOrientationModelRejects(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys, err := NewSystem(Config{Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)
	d, err := sys.ProcessWake(context.Background(), markedRecording(true, 50))
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonNoOrientation {
		t.Errorf("decision without model %+v", d)
	}
}

func TestPreprocessBandpass(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A 30 Hz rumble must be strongly attenuated while a 1 kHz tone
	// passes. Measure each component separately to avoid FFT leakage
	// confounds.
	level := func(freq float64) float64 {
		rec := audio.NewRecording(48000, 1, 48000)
		for i := range rec.Channels[0] {
			ti := float64(i) / 48000
			rec.Channels[0][i] = math.Sin(2 * math.Pi * freq * ti)
		}
		pre := sys.NewPreprocessor().applyInto(rec)
		// Skip the filter transient.
		return dsp.RMS(pre.Channels[0][12000:])
	}
	rumble := level(30)
	tone := level(1000)
	if db := 20 * math.Log10(rumble/tone); db > -35 {
		t.Errorf("30 Hz attenuated only %.1f dB relative to 1 kHz", db)
	}
}

func TestConcurrentAccess(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	sys := testSystem(t, clock)
	sys.SetMode(ModeHeadTalk)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			sys.SetMode(ModeHeadTalk)
			sys.SessionActive()
			sys.Mode()
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := sys.ProcessWake(context.Background(), markedRecording(i%2 == 0, uint64(70+i))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}
