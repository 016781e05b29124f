package stream

import (
	"context"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
)

// newTracker builds a standalone tracker the way the manager does,
// against a 30 s session timeout.
func newTracker(cfg TrackerConfig) *Tracker {
	cfg.applyDefaults(30 * time.Second)
	return &Tracker{cfg: cfg}
}

func TestTrackerClustersBySignature(t *testing.T) {
	tk := newTracker(TrackerConfig{Tolerance: 2})
	now := time.Unix(1_700_000_000, 0)

	a1, matched := tk.Observe([]int{3, 5, -2}, &core.Decision{FacingRan: true, FacingScore: 1.2}, now)
	if matched || a1.ID != "spk-1" || a1.Utterances != 1 {
		t.Fatalf("first observation: %+v matched=%v", a1, matched)
	}
	if !a1.Facing || a1.FacingScore != 1.2 {
		t.Fatalf("facing state not carried: %+v", a1)
	}

	// Near signature (mean lag distance 1/3) joins the same track.
	a2, matched := tk.Observe([]int{3, 6, -2}, &core.Decision{FacingRan: true, FacingScore: -0.4}, now.Add(time.Second))
	if !matched || a2.ID != "spk-1" || a2.Utterances != 2 {
		t.Fatalf("second observation: %+v matched=%v", a2, matched)
	}
	if a2.Facing {
		t.Error("facing state should flip with a negative margin")
	}
	if diff := a2.MeanFacing - (1.2-0.4)/2; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("mean facing %g, want %g", a2.MeanFacing, (1.2-0.4)/2)
	}

	// Distant signature opens a new track.
	b, matched := tk.Observe([]int{14, -9, 7}, nil, now.Add(2*time.Second))
	if matched || b.ID != "spk-2" {
		t.Fatalf("distant observation: %+v matched=%v", b, matched)
	}
	if tk.Len() != 2 {
		t.Fatalf("%d tracks, want 2", tk.Len())
	}

	// A decision whose facing stage did not run leaves history alone.
	c, _ := tk.Observe([]int{14, -9, 7}, &core.Decision{FacingRan: false, FacingScore: 99}, now.Add(3*time.Second))
	if c.FacingScore != 0 || c.MeanFacing != 0 {
		t.Errorf("facing history polluted by non-ran stage: %+v", c)
	}
}

func TestTrackerEvictIdle(t *testing.T) {
	tk := newTracker(TrackerConfig{TrackTimeout: time.Minute})
	now := time.Unix(1_700_000_000, 0)
	tk.Observe([]int{0, 0, 0}, nil, now)
	tk.Observe([]int{20, 20, 20}, nil, now.Add(50*time.Second))
	if n := tk.EvictIdle(now.Add(70 * time.Second)); n != 1 {
		t.Fatalf("evicted %d tracks, want 1 (only the idle one)", n)
	}
	if tk.Len() != 1 {
		t.Fatalf("%d tracks left, want 1", tk.Len())
	}
	// The survivor keeps its identity.
	info, matched := tk.Observe([]int{20, 20, 20}, nil, now.Add(71*time.Second))
	if !matched || info.ID != "spk-2" {
		t.Fatalf("survivor lost: %+v matched=%v", info, matched)
	}
}

func TestTrackerCapacityRecyclesOldest(t *testing.T) {
	tk := newTracker(TrackerConfig{MaxTracks: 2, Tolerance: 0.5})
	now := time.Unix(1_700_000_000, 0)
	tk.Observe([]int{0, 0}, nil, now)                    // spk-1, oldest
	tk.Observe([]int{10, 10}, nil, now.Add(time.Second)) // spk-2
	c, _ := tk.Observe([]int{-10, -10}, nil, now.Add(2*time.Second))
	if c.ID != "spk-3" || tk.Len() != 2 {
		t.Fatalf("capacity recycle: %+v, %d tracks", c, tk.Len())
	}
	// spk-1 was recycled: its signature now opens a fresh track.
	d, matched := tk.Observe([]int{0, 0}, nil, now.Add(3*time.Second))
	if matched || d.ID == "spk-1" {
		t.Fatalf("recycled track resurrected: %+v matched=%v", d, matched)
	}
}

// TestStreamSpeakerAttribution runs the full push path with tracking
// enabled: a spotted-and-decided candidate carries a speaker, and a
// second utterance from the same position — even under a different
// session ID — maps to the same speaker with accumulated history.
func TestStreamSpeakerAttribution(t *testing.T) {
	reg := metrics.NewRegistry()
	m, err := NewManager(Config{
		SampleRate:   48000,
		Channels:     2,
		Spotter:      testSpotter(t),
		JanitorEvery: -1,
		Metrics:      reg,
		Speakers:     &TrackerConfig{},
		Decide: func(ctx context.Context, rec *audio.Recording, spans SpanDurations) (core.Decision, error) {
			return core.Decision{
				Accepted:    true,
				Reason:      core.ReasonAccepted,
				FacingRan:   true,
				FacingScore: 0.8,
			}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	feed := wakeFeed(t, 48000, 2)
	findDecided := func(results []PushResult) *PushResult {
		for i := range results {
			if results[i].Status == StatusDecided {
				return &results[i]
			}
		}
		return nil
	}

	first := findDecided(pushChunks(t, m, "sessA", feed, 4800))
	if first == nil {
		t.Fatal("wake word never decided")
	}
	if first.Speaker == nil || first.Speaker.ID != "spk-1" {
		t.Fatalf("first candidate speaker: %+v", first.Speaker)
	}
	if !first.Speaker.Facing || first.Speaker.FacingScore != 0.8 {
		t.Fatalf("facing state missing: %+v", first.Speaker)
	}

	// Same feed (same TDoA signature), different session: the tracker
	// recognizes the speaker across sessions and utterances.
	second := findDecided(pushChunks(t, m, "sessB", feed, 4800))
	if second == nil {
		t.Fatal("second wake word never decided")
	}
	if second.Speaker == nil || second.Speaker.ID != "spk-1" {
		t.Fatalf("speaker identity not carried across sessions: %+v", second.Speaker)
	}
	if second.Speaker.Utterances < 2 {
		t.Errorf("utterance count %d, want >= 2", second.Speaker.Utterances)
	}
	if got := counter(t, reg, "stream.speakers.matched"); got == 0 {
		t.Error("stream.speakers.matched never incremented")
	}
	if got := counter(t, reg, "stream.speakers.created"); got != 1 {
		t.Errorf("stream.speakers.created = %d, want 1", got)
	}
}
