package va

import (
	"context"
	"fmt"
	"sync"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
)

// Upload is one audio segment the assistant would have transmitted to
// its cloud service — the privacy event HeadTalk gates.
type Upload struct {
	Time     time.Time
	Duration float64 // seconds of audio shipped
	Source   string  // free-form scenario tag ("owner", "tv", "attacker")
}

// Response is the assistant's reaction to hearing audio.
type Response struct {
	WakeDetected bool
	SpotterScore float64
	Decision     core.Decision
	// Uploaded reports whether audio left the device.
	Uploaded bool
	// Speech is what the assistant says back (the user study's "How
	// can I help you?" vs "Sorry, I didn't hear you").
	Speech string
}

// Assistant wires a wake-word spotter to a HeadTalk privacy
// controller and records every would-be cloud upload. It is safe for
// concurrent use.
type Assistant struct {
	Name    string
	spotter *Spotter
	sys     *core.System

	mu      sync.Mutex
	uploads []Upload
	clock   func() time.Time
}

// NewAssistant builds an assistant. clock may be nil (time.Now).
func NewAssistant(name string, spotter *Spotter, sys *core.System, clock func() time.Time) (*Assistant, error) {
	if spotter == nil || sys == nil {
		return nil, fmt.Errorf("va: assistant needs both a spotter and a core system")
	}
	if clock == nil {
		clock = time.Now
	}
	return &Assistant{Name: name, spotter: spotter, sys: sys, clock: clock}, nil
}

// Hear processes a microphone-array recording that may contain the
// wake word. source tags the scenario actor for the upload log. It is
// HearCtx with a background context.
func (a *Assistant) Hear(rec *audio.Recording, source string) (Response, error) {
	return a.HearCtx(context.Background(), rec, source)
}

// HearCtx is Hear with a caller context: the context bounds the wake
// decision and may carry a trace recorder.
func (a *Assistant) HearCtx(ctx context.Context, rec *audio.Recording, source string) (Response, error) {
	var resp Response
	detected, score, _ := a.spotter.Detect(rec.Mono(), rec.SampleRate)
	resp.WakeDetected = detected
	resp.SpotterScore = score
	if !detected {
		resp.Speech = ""
		return resp, nil
	}
	decision, err := a.sys.ProcessWake(ctx, rec)
	if err != nil {
		return resp, fmt.Errorf("va: processing wake word: %w", err)
	}
	resp.Decision = decision
	if decision.Accepted {
		resp.Uploaded = true
		resp.Speech = "How can I help you?"
		a.mu.Lock()
		a.uploads = append(a.uploads, Upload{
			Time:     a.clock(),
			Duration: float64(rec.Len()) / rec.SampleRate,
			Source:   source,
		})
		a.mu.Unlock()
	} else {
		resp.Speech = "Sorry, I didn't hear you."
	}
	return resp, nil
}

// UploadsBySource tallies uploads per scenario actor.
func (a *Assistant) UploadsBySource() map[string]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int)
	for _, u := range a.uploads {
		out[u.Source]++
	}
	return out
}
