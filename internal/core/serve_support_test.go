package core

// Tests for the serving-layer support added to the core system: the
// cached band-pass design with per-goroutine Preprocessors, metrics
// wiring, and concurrent hammering (run with -race).

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"headtalk/internal/dsp"
	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/registry"
)

func TestPreprocessorMatchesFreshDesign(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := markedRecording(true, 7)
	// Reference: a freshly designed filter, as the old per-call path
	// built.
	bp, err := dsp.NewButterworthBandPass(5, 100, 16000, 48000)
	if err != nil {
		t.Fatal(err)
	}
	want := bp.Apply(rec.Channels[0])

	p := sys.NewPreprocessor()
	for round := 0; round < 2; round++ { // reuse must not leak state
		got := p.applyInto(rec)
		for i := range want {
			if math.Abs(got.Channels[0][i]-want[i]) > 1e-12 {
				t.Fatalf("round %d: cached filter diverges at sample %d: %g vs %g", round, i, got.Channels[0][i], want[i])
			}
		}
	}
}

func TestMetricsWiring(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	reg := metrics.NewRegistry()
	featCfg := features.DefaultConfig(13, 48000)
	sys, err := NewSystem(Config{
		Clock:    clock.Now,
		Metrics:  reg,
		Features: featCfg,
		Models:   registry.NewStatic(registry.ModelSet{Orientation: trainedOrientation(t, featCfg)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)
	if _, err := sys.ProcessWake(context.Background(), markedRecording(true, 80)); err != nil {
		t.Fatal(err)
	}
	sys.EndSession()
	if _, err := sys.ProcessWake(context.Background(), markedRecording(false, 81)); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Counters["headtalk.decisions.total"] != 2 {
		t.Fatalf("decisions.total = %d, want 2", s.Counters["headtalk.decisions.total"])
	}
	if s.Counters["headtalk.decisions.accepted"] != 1 || s.Counters["headtalk.decisions.rejected"] != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 1/1",
			s.Counters["headtalk.decisions.accepted"], s.Counters["headtalk.decisions.rejected"])
	}
	if s.Counters["headtalk.decisions.reason.accepted"] != 1 || s.Counters["headtalk.decisions.reason.not_facing"] != 1 {
		t.Fatalf("reason counters wrong: %v", s.Counters)
	}
	if h := s.Histograms["headtalk.gate.orientation.latency"]; h.Count != 2 {
		t.Fatalf("orientation gate latency observations = %d, want 2", h.Count)
	}
	if h := s.Histograms["headtalk.preprocess.latency"]; h.Count != 2 {
		t.Fatalf("preprocess latency observations = %d, want 2", h.Count)
	}
}

// TestConcurrentHammer mixes ProcessWake, SetMode, SessionActive and
// Mode from many goroutines against one System; with -race this is the
// system's concurrency proof. The decision counter is checked against
// the decisions made so no decision goes uncounted.
func TestConcurrentHammer(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	featCfg := features.DefaultConfig(13, 48000)
	reg := metrics.NewRegistry()
	sys, err := NewSystem(Config{
		Clock:    clock.Now,
		Features: featCfg,
		Models:   registry.NewStatic(registry.ModelSet{Orientation: trainedOrientation(t, featCfg)}),
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)

	const workers = 8
	const perWorker = 6
	recs := []struct{ facing bool }{{true}, {false}}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch (w + i) % 4 {
				case 0:
					sys.SetMode(ModeHeadTalk)
				case 1:
					sys.SessionActive()
					sys.Mode()
				default:
					r := recs[(w+i)%len(recs)]
					if _, err := sys.ProcessWake(context.Background(), markedRecording(r.facing, uint64(w*100+i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	counted := reg.Counter("headtalk.decisions.total").Value()
	var wantDecisions uint64
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if (w+i)%4 >= 2 {
				wantDecisions++
			}
		}
	}
	if counted != wantDecisions {
		t.Fatalf("counted %d decisions, want %d", counted, wantDecisions)
	}
}
