package core

// Integration tests for the registry-backed model resolution path:
// fail-closed fused-ensemble arming, the array-fingerprint gate inside
// the decision pipeline, the adaptation hook, and atomic hot-swap under
// concurrent serving.

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/features"
	"headtalk/internal/liveness"
	"headtalk/internal/metrics"
	"headtalk/internal/registry"
)

// coloredRecording builds a 4-channel capture whose long-term spectrum
// is shaped by a moving-average low-pass of length taps — a stand-in
// for audio that crossed a playback chain the enrollment never saw
// (taps=1 is the "enrolled" white coloration markedRecording uses).
func coloredRecording(seed uint64, taps int) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 123))
	n := 24000
	rec := audio.NewRecording(48000, 4, n)
	for c := range rec.Channels {
		raw := make([]float64, n+taps)
		for i := range raw {
			raw[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			var s float64
			for k := 0; k < taps; k++ {
				s += raw[i+k]
			}
			rec.Channels[c][i] = s / float64(taps)
		}
	}
	return rec
}

// trainedFingerprint enrolls an array fingerprint on the same
// white-ish coloration markedRecording produces, so marked recordings
// pass the gate and moving-average-colored ones do not.
func trainedFingerprint(t *testing.T) *liveness.ArrayFingerprint {
	t.Helper()
	var recs []*audio.Recording
	for i := 0; i < 4; i++ {
		recs = append(recs, markedRecording(i%2 == 0, uint64(400+i)))
	}
	fp, err := liveness.TrainArrayFingerprint(recs, liveness.FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// registrySystem builds a System resolving models through the given
// provider, in HeadTalk mode.
func registrySystem(t *testing.T, provider registry.Provider) *System {
	t.Helper()
	featCfg := features.DefaultConfig(13, 48000)
	sys, err := NewSystem(Config{
		SessionTimeout: 10 * time.Second,
		Features:       featCfg,
		Models:         provider,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)
	return sys
}

func TestRequireEnsembleFailsClosed(t *testing.T) {
	featCfg := features.DefaultConfig(13, 48000)
	m := trainedOrientation(t, featCfg)

	// Missing BOTH liveness models, and missing just one — every
	// combination short of a complete ensemble must reject.
	for name, set := range map[string]registry.ModelSet{
		"no-liveness-models": {Orientation: m, RequireEnsemble: true},
		"fingerprint-only":   {Orientation: m, RequireEnsemble: true, ArrayFingerprint: trainedFingerprint(t)},
	} {
		sys := registrySystem(t, registry.NewStatic(set))
		d, err := sys.ProcessWake(context.Background(), markedRecording(true, 41))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Accepted || d.Reason != ReasonNoLiveness {
			t.Fatalf("%s: decision %+v, want fail-closed ReasonNoLiveness", name, d)
		}
	}
}

func TestFingerprintGateInPipeline(t *testing.T) {
	featCfg := features.DefaultConfig(13, 48000)
	set := registry.ModelSet{
		Orientation:      trainedOrientation(t, featCfg),
		ArrayFingerprint: trainedFingerprint(t),
	}
	sys := registrySystem(t, registry.NewStatic(set))

	// A facing capture through the enrolled coloration clears both the
	// fingerprint and orientation gates.
	d, err := sys.ProcessWake(context.Background(), markedRecording(true, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || !d.FingerprintRan {
		t.Fatalf("enrolled-coloration capture: %+v", d)
	}

	// The fingerprint gate is enforced even while that session is open:
	// a capture through a foreign playback chain cannot ride it.
	d, err = sys.ProcessWake(context.Background(), coloredRecording(51, 12))
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted || d.Reason != ReasonFingerprintMismatch || !d.FingerprintRan {
		t.Fatalf("foreign-coloration capture during session: %+v, want ReasonFingerprintMismatch", d)
	}
	if d.Reason.Slug() != "fingerprint_mismatch" {
		t.Fatalf("reason slug %q", d.Reason.Slug())
	}
}

func TestOnAcceptedHookFiresWithFeatures(t *testing.T) {
	featCfg := features.DefaultConfig(13, 48000)
	var mu sync.Mutex
	var got []float64
	set := registry.ModelSet{
		Orientation: trainedOrientation(t, featCfg),
		OnAccepted: func(feats []float64, score float64) {
			cp := make([]float64, len(feats))
			copy(cp, feats)
			mu.Lock()
			got = cp
			mu.Unlock()
		},
	}
	sys := registrySystem(t, registry.NewStatic(set))
	d, err := sys.ProcessWake(context.Background(), markedRecording(true, 70))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("decision %+v", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("OnAccepted did not fire with the decision's feature vector")
	}
	sys.EndSession()

	// Rejected decisions must not feed adaptation.
	got = nil
	if _, err := sys.ProcessWake(context.Background(), markedRecording(false, 71)); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("OnAccepted fired for a rejected decision")
	}
}

// TestHotSwapWhileServing promotes and rolls back orientation versions
// in a real registry while decisions stream through the system — the
// ISSUE's atomicity criterion, meant for -race. Every decision must
// resolve a complete, coherent set: no errors, no torn state.
func TestHotSwapWhileServing(t *testing.T) {
	featCfg := features.DefaultConfig(13, 48000)
	reg := registry.New(registry.Config{
		Metrics: metrics.NewRegistry(),
		Adapt:   registry.AdaptConfig{Disable: true},
	})
	v1, err := reg.Install(registry.KindOrientation, trainedOrientation(t, featCfg))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.AddModel(registry.KindOrientation, trainedOrientation(t, featCfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(registry.KindOrientation, v2); err != nil {
		t.Fatal(err)
	}
	sys := registrySystem(t, reg)

	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if i%2 == 0 {
				_ = reg.Promote(registry.KindOrientation, v1)
			} else {
				_, _ = reg.Rollback(registry.KindOrientation)
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d, err := sys.ProcessWake(context.Background(), markedRecording(true, seed+uint64(i)))
				if err != nil {
					errs <- err
					return
				}
				if d.Reason == ReasonNoOrientation {
					errs <- context.DeadlineExceeded // any sentinel: a swap exposed a missing model
					return
				}
			}
		}(uint64(1000 * (w + 1)))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("decision failed during hot-swap storm: %v", err)
	}
}
