package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/features"
	"headtalk/internal/orientation"
	"headtalk/internal/registry"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from the current code")

// goldenCaptures is the fixed capture set TestDecisionGolden decides:
// the marked recordings of seeds 0-15, one long capture the focus
// window must crop, and one capture with a dead channel the channel
// plan must drop.
func goldenCaptures() (names []string, recs []*audio.Recording) {
	for seed := uint64(0); seed < 16; seed++ {
		names = append(names, fmt.Sprintf("marked-%02d", seed))
		recs = append(recs, markedRecording(seed%2 == 1, seed))
	}

	// 50 000 samples: a quiet incoherent lead-in, then the facing
	// utterance. FocusBounds crops to its 32768-sample window.
	const longN = 50000
	long := audio.NewRecording(48000, 4, longN)
	lead := markedRecording(false, 16)
	word := markedRecording(true, 17)
	leadN := longN - word.Len()
	for c := range long.Channels {
		for i := 0; i < leadN; i++ {
			long.Channels[c][i] = 0.1 * lead.Channels[c][i%lead.Len()]
		}
		copy(long.Channels[c][leadN:], word.Channels[c])
	}
	names = append(names, "long-50000")
	recs = append(recs, long)

	dead := markedRecording(true, 18)
	for i := range dead.Channels[3] {
		dead.Channels[3][i] = 0
	}
	names = append(names, "dead-channel-3")
	recs = append(recs, dead)
	return names, recs
}

// goldenSystem is a HeadTalk-mode system with sessions disabled (so
// every capture runs the whole gate) and a 3-channel fallback model
// (so a capture with one dead channel still reaches the SVM).
func goldenSystem(t *testing.T) *System {
	t.Helper()
	clock := &fakeClock{now: time.Unix(1000, 0)}
	featCfg := features.DefaultConfig(13, 48000)
	sys, err := NewSystem(Config{
		SessionTimeout: -time.Second, // sessions expire instantly
		Clock:          clock.Now,
		Features:       featCfg,
		Models: registry.NewStatic(registry.ModelSet{
			Orientation: trainedOrientation(t, featCfg),
			OrientationByChannels: map[int]*orientation.Model{
				3: trainedFallback(t, featCfg, []int{0, 1, 2}),
			},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)
	return sys
}

// TestDecisionGolden pins every decision of the full HeadTalk gate,
// bit for bit, over goldenCaptures. Sessions are disabled so every
// capture runs channel planning, band-pass, GCC/SRP features and the
// SVM. Regenerate with `go test ./internal/core -run DecisionGolden
// -update` only when a change is meant to move decisions.
func TestDecisionGolden(t *testing.T) {
	sys := goldenSystem(t)

	var buf bytes.Buffer
	names, recs := goldenCaptures()
	for i, rec := range recs {
		d, err := sys.ProcessWake(context.Background(), rec)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(&buf, "%s accepted=%t reason=%s facing_score=%s facing_ran=%t live_ran=%t degraded=%d\n",
			names[i], d.Accepted, d.Reason.Slug(),
			strconv.FormatFloat(d.FacingScore, 'g', -1, 64),
			d.FacingRan, d.LiveRan, d.DegradedChannels)
	}

	path := filepath.Join("testdata", "decisions.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("decisions drifted from %s:\n--- want\n%s--- got\n%s", path, want, buf.Bytes())
	}
}

// A serving worker reuses one Preprocessor arena for every capture it
// decides, whatever their length or channel plan. Reuse must leave no
// trace: each decision must equal the one a fresh Preprocessor makes.
func TestWorkerArenaReuseMatchesFresh(t *testing.T) {
	sys := goldenSystem(t)
	ctx := context.Background()
	names, recs := goldenCaptures()
	want := make([]Decision, len(recs))
	for i, rec := range recs {
		d, err := sys.ProcessWakeWith(ctx, sys.NewPreprocessor(), rec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	// Forwards then backwards, so every capture follows both a shorter
	// and a longer one on the warm arena.
	worker := sys.NewPreprocessor()
	for k := 0; k < 2*len(recs); k++ {
		i := k
		if k >= len(recs) {
			i = 2*len(recs) - 1 - k
		}
		got, err := sys.ProcessWakeWith(ctx, worker, recs[i])
		if err != nil {
			t.Fatal(err)
		}
		decisionsEqual(t, names[i], want[i], got)
	}
}
