package serve

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/speech"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
	"headtalk/internal/va"
)

func testStreamSpotter(t testing.TB) *va.Spotter {
	t.Helper()
	s, err := va.NewSpotter(speech.WordComputer, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newStreamingEngine builds a started engine with the continuous
// ingest front end attached (Normal mode: spotted candidates are
// accepted fast).
func newStreamingEngine(t *testing.T, reg *metrics.Registry, traces *trace.Store) *Engine {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		System:  sys,
		Workers: 2,
		Metrics: reg,
		Traces:  traces,
		Streaming: &stream.Config{
			SampleRate:   48000,
			Channels:     4,
			Spotter:      testStreamSpotter(t),
			JanitorEvery: -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng
}

// streamWakeFeed synthesizes the wake word at 48 kHz with padding,
// replicated across channels.
func streamWakeFeed(t testing.TB, channels int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 0x5b07734))
	buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 48000, rng)
	pad := make([]float64, 9600)
	mono := append(append(append([]float64(nil), pad...), buf.Samples...), pad...)
	feed := make([][]float64, channels)
	for c := range feed {
		feed[c] = mono
	}
	return feed
}

// pushFeed streams feed into the engine in 10 ms chunks and returns
// all results.
func pushFeed(t testing.TB, eng *Engine, id string, feed [][]float64) []stream.PushResult {
	t.Helper()
	var out []stream.PushResult
	scratch := make([][]float64, len(feed))
	for start := 0; start < len(feed[0]); start += 480 {
		end := start + 480
		if end > len(feed[0]) {
			end = len(feed[0])
		}
		for c := range feed {
			scratch[c] = feed[c][start:end]
		}
		res, err := eng.PushFrames(context.Background(), id, scratch)
		if err != nil {
			t.Fatalf("push at %d: %v", start, err)
		}
		out = append(out, res)
	}
	return out
}

// TestEngineStreamingDecides: a chunked wake-word feed through
// PushFrames must produce exactly one engine decision — the spotted
// candidate — while every other push exits the cascade before the
// queue.
func TestEngineStreamingDecides(t *testing.T) {
	reg := metrics.NewRegistry()
	eng := newStreamingEngine(t, reg, nil)

	results := pushFeed(t, eng, "alice", streamWakeFeed(t, 4))
	var decided *stream.PushResult
	for i := range results {
		if results[i].Status == stream.StatusDecided {
			decided = &results[i]
			break
		}
	}
	if decided == nil {
		t.Fatal("no push reached a decision")
	}
	if decided.Err != nil {
		t.Fatalf("streamed decision error: %v", decided.Err)
	}
	if decided.Decision == nil || !decided.Decision.Accepted || decided.Decision.Reason != core.ReasonNormalMode {
		t.Fatalf("streamed decision %+v", decided.Decision)
	}
	// The acceptance invariant: only the spotted candidate entered the
	// engine — early-exit pushes never became submissions, so the
	// expensive pipeline ran exactly once for the whole feed.
	if got := reg.Counter("serve.submitted.total").Value(); got != 1 {
		t.Fatalf("serve.submitted.total=%d, want 1 (early exits must skip the pipeline)", got)
	}
	exits := reg.Counter("stream.exit.energy").Value() + reg.Counter("stream.exit.spotter").Value()
	if exits == 0 {
		t.Fatal("no push exited early: the cascade never gated anything")
	}
	if got := reg.Counter("stream.decisions").Value(); got != 1 {
		t.Fatalf("stream.decisions=%d, want 1", got)
	}
}

// TestEngineStreamingTraceSpans: a streamed decision's trace must
// carry the ingest and spot spans ahead of the engine's own stages.
func TestEngineStreamingTraceSpans(t *testing.T) {
	reg := metrics.NewRegistry()
	store := trace.NewStore(8, 0)
	store.SetEnabled(true)
	eng := newStreamingEngine(t, reg, store)

	pushFeed(t, eng, "alice", streamWakeFeed(t, 4))
	traces := store.Recent(8)
	if len(traces) != 1 {
		t.Fatalf("store holds %d traces, want 1", len(traces))
	}
	seen := map[trace.Stage]time.Duration{}
	for _, sp := range traces[0].Spans() {
		seen[sp.Stage] = sp.Duration
	}
	if _, ok := seen[trace.StageIngest]; !ok {
		t.Fatalf("trace has no ingest span: %v", traces[0].Spans())
	}
	if _, ok := seen[trace.StageSpot]; !ok {
		t.Fatalf("trace has no spot span: %v", traces[0].Spans())
	}
	if d := seen[trace.StageSpot]; d <= 0 {
		t.Fatalf("spot span %v, want > 0", d)
	}
}

// TestEngineWithoutStreaming: streaming methods on a plain engine fail
// with ErrNoStream.
func TestEngineWithoutStreaming(t *testing.T) {
	eng, _ := newTestEngine(t, 1, 4, nil)
	if eng.streams != nil {
		t.Fatal("plain engine has a session manager")
	}
	chunk := [][]float64{make([]float64, 480)}
	if _, err := eng.PushFrames(context.Background(), "s", chunk); !errors.Is(err, ErrNoStream) {
		t.Fatalf("PushFrames = %v, want ErrNoStream", err)
	}
	if _, err := eng.EndSession("s"); !errors.Is(err, ErrNoStream) {
		t.Fatalf("EndSession = %v, want ErrNoStream", err)
	}
}

// TestEngineDrainClosesStreams: draining the engine also closes the
// session manager, so pushes after drain fail with stream.ErrClosed.
func TestEngineDrainClosesStreams(t *testing.T) {
	eng := newStreamingEngine(t, nil, nil)
	chunk := make([][]float64, 4)
	for c := range chunk {
		chunk[c] = make([]float64, 480)
	}
	if _, err := eng.PushFrames(context.Background(), "s", chunk); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushFrames(context.Background(), "s", chunk); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("push after drain = %v, want stream.ErrClosed", err)
	}
}

// TestEngineStreamingBadConfig: an invalid streaming config fails
// engine construction.
func TestEngineStreamingBadConfig(t *testing.T) {
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Config{System: sys, Streaming: &stream.Config{}}); err == nil {
		t.Fatal("streaming config without a spotter should fail NewEngine")
	}
}
