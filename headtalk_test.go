package headtalk

import (
	"context"
	"math/rand/v2"
	"testing"

	"headtalk/internal/dataset"
)

func TestPublicSurfaceBasics(t *testing.T) {
	if DeviceD1().Channels() != 7 || DeviceD2().Channels() != 6 || DeviceD3().Channels() != 4 {
		t.Error("device channel counts wrong")
	}
	if LabRoom().Name != "lab" || HomeRoom().Name != "home" {
		t.Error("room names wrong")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	buf := SynthesizeWakeWord(WordComputer, DefaultVoice(), 16000, rng)
	if float64(len(buf.Samples))/buf.SampleRate < 0.2 {
		t.Error("synthesized word too short")
	}
	v := RandomVoice(rng)
	if v.BasePitch == 0 {
		t.Error("random voice not drawn")
	}
	cfg := DefaultFeatureConfig(13, 48000)
	if cfg.MaxLag != 13 {
		t.Error("feature config wrong")
	}
}

func TestEnrollValidation(t *testing.T) {
	// Fast path: orientation only with a single repetition.
	if testing.Short() {
		t.Skip("enrollment is slow")
	}
	enr, err := Enroll(EnrollmentOptions{
		Seed:            3,
		OrientationReps: 1,
		SkipLiveness:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if enr.Orientation == nil {
		t.Fatal("no orientation model")
	}
	if enr.Liveness != nil {
		t.Error("liveness trained despite SkipLiveness")
	}

	sys, err := NewSystem(Config{Models: NewStaticModels(ModelSet{Orientation: enr.Orientation})})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)

	gen := NewGenerator(900)
	facing, err := dataset.CaptureRecording(gen, Condition{AngleDeg: 0, Distance: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.ProcessWake(context.Background(), facing)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Errorf("facing capture rejected: %+v", d)
	}
	sys.EndSession()

	away, err := dataset.CaptureRecording(gen, Condition{AngleDeg: 180, Distance: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err = sys.ProcessWake(context.Background(), away)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Errorf("180° capture accepted: %+v", d)
	}
}

func TestSpotterAndAssistantWiring(t *testing.T) {
	spotter, err := NewSpotter(WordComputer, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAssistant("demo", spotter, sys); err != nil {
		t.Fatal(err)
	}
}
