package core_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"headtalk"
	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/dsp"
	"headtalk/internal/mic"
	"headtalk/internal/registry"
)

// The served golden decides on device D3 in the lab room, the
// placement perfbench serves.
const (
	servedDevice = "D3"
	servedRoom   = "lab"
)

var (
	servedEnrollmentDir = filepath.Join("testdata", "served-enrollment")
	servedGoldenPath    = filepath.Join("testdata", "served_decisions.golden")
)

// servedEnrollment returns the committed enrollment (orientation,
// spectral liveness and array fingerprint, each in a sealed registry
// envelope). With -update it re-enrolls first, with reduced
// repetitions, and rewrites the envelopes.
func servedEnrollment(t testing.TB) *headtalk.Enrollment {
	t.Helper()
	if *core.UpdateGolden {
		enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{
			Seed: 7, Room: servedRoom, Device: servedDevice,
			OrientationReps: 1, LivenessPairs: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := enr.SaveTo(servedEnrollmentDir); err != nil {
			t.Fatal(err)
		}
	}
	enr, err := headtalk.LoadEnrollment(servedEnrollmentDir)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if enr.Liveness == nil || enr.ArrayFingerprint == nil {
		t.Fatal("served enrollment lacks a liveness model")
	}
	return enr
}

// servedOptions varies the served system.
type servedOptions struct {
	// ensemble arms the registry's liveness ensemble;
	// dropFingerprint leaves the fingerprint model out of it.
	ensemble, dropFingerprint bool
	// noSessions makes sessions expire instantly, so every decision
	// runs every gate.
	noSessions bool
	// noAdapt turns off the registry's online adaptation, whose accept
	// hook allocates until its first candidate build.
	noAdapt bool
}

// servedSystem builds a HeadTalk-mode system over the enrollment on a
// frozen clock, so an opened session stays open.
func servedSystem(t testing.TB, enr *headtalk.Enrollment, opts servedOptions) *core.System {
	t.Helper()
	e := *enr
	if opts.dropFingerprint {
		e.ArrayFingerprint = nil
	}
	reg, err := e.Registry(registry.Config{
		EnsembleMode: opts.ensemble,
		Adapt:        registry.AdaptConfig{Disable: opts.noAdapt},
	})
	if err != nil {
		t.Fatal(err)
	}
	array, err := mic.DeviceByID(servedDevice)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	cfg := core.Config{
		Models:   reg,
		Features: dataset.FeatureConfigFor(array),
		Clock:    func() time.Time { return now },
	}
	if opts.noSessions {
		cfg.SessionTimeout = -time.Second
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(core.ModeHeadTalk)
	return sys
}

// servedCapture is one step of the golden sequence.
type servedCapture struct {
	name string
	rec  *audio.Recording
}

func cond(angle, dist float64, rep int, replay string) dataset.Condition {
	return dataset.Condition{
		Room: servedRoom, Device: servedDevice,
		AngleDeg: angle, Distance: dist, Rep: rep, Replay: replay,
	}
}

var (
	servedOnce sync.Once
	servedRecs []servedCapture
	servedErr  error
)

// servedCaptures renders the fixed capture set, in decision order:
// rejections first, on a system with no open session, then the facing
// wake that opens one, then follow-ups inside it. Rendering is seeded,
// so the set is identical on every run.
func servedCaptures(t testing.TB) []servedCapture {
	t.Helper()
	servedOnce.Do(func() {
		gen := dataset.NewGenerator(31)
		render := func(name string, c dataset.Condition) *audio.Recording {
			if servedErr != nil {
				return nil
			}
			rec, err := dataset.CaptureRecording(gen, c)
			if err != nil {
				servedErr = fmt.Errorf("%s: %w", name, err)
				return nil
			}
			servedRecs = append(servedRecs, servedCapture{name, rec})
			return rec
		}
		render("averted-180-1m", cond(180, 1, 1, ""))
		render("averted-135-3m", cond(135, 3, 2, ""))
		render("replay-tv-1m", cond(0, 1, 3, "Smart TV"))
		render("replay-sony-3m", cond(0, 3, 4, "Sony SRS-X5"))
		render("replay-phone-1m", cond(0, 1, 5, "Samsung Galaxy S21 Ultra"))
		render("home-facing-3m", dataset.Condition{Room: "home", Device: servedDevice, Distance: 3, Rep: 6})

		// A playback chain that cuts everything above 9 kHz: spectral
		// liveness, which looks no higher than 7.6 kHz, passes it; the
		// array fingerprint does not.
		if muffled := render("facing-1m-lowpass-9k", cond(0, 1, 14, "")); muffled != nil {
			for _, ch := range muffled.Channels {
				lp, err := dsp.NewButterworthLowPass(4, 9000, muffled.SampleRate)
				if err != nil {
					servedErr = err
					return
				}
				lp.ApplyTo(ch, ch)
			}
		}

		// One dead channel: no 3-channel fallback model is enrolled, so
		// the channel plan fails closed.
		if dead := render("facing-1m-dead-ch2", cond(0, 1, 7, "")); dead != nil {
			dead.Channels[2] = make([]float64, len(dead.Channels[2]))
		}

		// A 1.5 s stream candidate: the last 72 000 samples of a ring
		// holding room ambience and then the wake word.
		if word := render("facing-3m-ring", cond(0, 3, 8, "")); word != nil {
			const ringN = 72000
			amb, err := dataset.CaptureRecording(gen, dataset.Condition{
				Room: servedRoom, Device: servedDevice, Distance: 3, Rep: 9, SPL: 30,
			})
			if err != nil {
				servedErr = err
				return
			}
			ring := audio.NewRecording(word.SampleRate, len(word.Channels), ringN)
			wordN := min(word.Len(), ringN)
			leadN := ringN - wordN
			for c := range ring.Channels {
				for i := 0; i < leadN; i++ {
					ring.Channels[c][i] = 0.05 * amb.Channels[c][i%amb.Len()]
				}
				copy(ring.Channels[c][leadN:], word.Channels[c][word.Len()-wordN:])
			}
			servedRecs[len(servedRecs)-1].rec = ring
		}

		render("facing-1m", cond(0, 1, 10, ""))
		render("session-averted-180-3m", cond(180, 3, 11, ""))
		render("session-replay-tv-3m", cond(0, 3, 12, "Smart TV"))
		render("session-facing-5m", cond(15, 5, 13, ""))
	})
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return servedRecs
}

func servedCaptureNamed(t testing.TB, caps []servedCapture, name string) *audio.Recording {
	t.Helper()
	for _, c := range caps {
		if c.name == name {
			return c.rec
		}
	}
	t.Fatalf("no served capture %q", name)
	return nil
}

func formatServed(name string, d core.Decision) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s accepted=%t reason=%s live=%s fingerprint=%s facing=%s live_ran=%t fingerprint_ran=%t facing_ran=%t degraded=%d\n",
		name, d.Accepted, d.Reason.Slug(), g(d.LiveScore), g(d.FingerprintScore), g(d.FacingScore),
		d.LiveRan, d.FingerprintRan, d.FacingRan, d.DegradedChannels)
}

// TestServedDecisionGolden pins, bit for bit, every decision a served
// system makes with all three enrolled gates — spectral liveness, the
// array fingerprint and orientation — over rendered speech: averted and
// facing talkers, three replay devices, another room, a dead channel,
// a ring-length stream candidate and follow-ups inside an open session.
// A last system arms the liveness ensemble without its fingerprint
// model. Regenerate with `go test ./internal/core -run
// ServedDecisionGolden -update` only when a change is meant to move
// decisions.
func TestServedDecisionGolden(t *testing.T) {
	enr := servedEnrollment(t)
	caps := servedCaptures(t)
	ctx := context.Background()

	var buf bytes.Buffer
	sys := servedSystem(t, enr, servedOptions{})
	for _, c := range caps {
		d, err := sys.ProcessWake(ctx, c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		buf.WriteString(formatServed(c.name, d))
	}
	// The facing wake again, on a system that arms the ensemble without
	// its fingerprint model.
	facing := servedCaptureNamed(t, caps, "facing-1m")
	ens := servedSystem(t, enr, servedOptions{ensemble: true, dropFingerprint: true})
	d, err := ens.ProcessWake(ctx, facing)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(formatServed("ensemble-without-fingerprint", d))

	if *core.UpdateGolden {
		if err := os.WriteFile(servedGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(servedGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("decisions drifted from %s:\n--- want\n%s--- got\n%s", servedGoldenPath, want, buf.Bytes())
	}
}
