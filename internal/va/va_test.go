package va

import (
	"math/rand/v2"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/speech"
)

func wordRecording(word speech.WakeWord, seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 1))
	voice := speech.RandomVoice(rng)
	buf := speech.Synthesize(word, voice, 16000, rng)
	rec := audio.NewRecording(16000, 1, len(buf.Samples))
	copy(rec.Channels[0], buf.Samples)
	return rec
}

func noiseRecording(n int, seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 2))
	rec := audio.NewRecording(16000, 1, n)
	for i := range rec.Channels[0] {
		rec.Channels[0][i] = 0.3 * rng.NormFloat64()
	}
	return rec
}

func TestSpotterDetectsOwnWord(t *testing.T) {
	spotter, err := NewSpotter(speech.WordComputer, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const trials = 6
	for i := 0; i < trials; i++ {
		rec := wordRecording(speech.WordComputer, uint64(100+i))
		if ok, _, _ := spotter.Detect(rec.Channels[0], 16000); ok {
			hits++
		}
	}
	if hits < trials-1 {
		t.Errorf("spotter hit %d/%d genuine wake words", hits, trials)
	}
}

func TestSpotterRejectsNoise(t *testing.T) {
	spotter, err := NewSpotter(speech.WordComputer, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	false_ := 0
	const trials = 6
	for i := 0; i < trials; i++ {
		rec := noiseRecording(16000, uint64(200+i))
		if ok, _, _ := spotter.Detect(rec.Channels[0], 16000); ok {
			false_++
		}
	}
	if false_ > 1 {
		t.Errorf("spotter fired on %d/%d noise clips", false_, trials)
	}
}

func TestSpotterScoreOrdering(t *testing.T) {
	spotter, err := NewSpotter(speech.WordComputer, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, wordScore, _ := spotter.Detect(wordRecording(speech.WordComputer, 300).Channels[0], 16000)
	_, noiseScore, _ := spotter.Detect(noiseRecording(16000, 301).Channels[0], 16000)
	if wordScore <= noiseScore {
		t.Errorf("word score %g not above noise score %g", wordScore, noiseScore)
	}
}

func TestSpotterShortAudio(t *testing.T) {
	spotter, err := NewSpotter(speech.WordComputer, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Must not panic on audio shorter than the template.
	spotter.Detect(make([]float64, 2000), 16000)
}

func TestAssistantUploadGating(t *testing.T) {
	spotter, err := NewSpotter(speech.WordComputer, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{SampleRate: 16000, BandpassHigh: 7500})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(5000, 0)
	assistant, err := NewAssistant("test", spotter, sys, func() time.Time { return clock })
	if err != nil {
		t.Fatal(err)
	}

	// Normal mode: a detected wake word uploads.
	rec := wordRecording(speech.WordComputer, 400)
	resp, err := assistant.Hear(rec, "owner")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.WakeDetected {
		t.Fatal("wake word not detected")
	}
	if !resp.Uploaded || resp.Speech != "How can I help you?" {
		t.Errorf("normal-mode response %+v", resp)
	}

	// Mute mode: detected but not uploaded.
	sys.SetMode(core.ModeMute)
	resp, err = assistant.Hear(rec, "owner")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Uploaded {
		t.Error("mute mode uploaded")
	}
	if resp.Speech != "Sorry, I didn't hear you." {
		t.Errorf("mute-mode speech %q", resp.Speech)
	}

	// Noise: no wake, no upload, no log entry.
	resp, err = assistant.Hear(noiseRecording(16000, 401), "tv")
	if err != nil {
		t.Fatal(err)
	}
	if resp.WakeDetected || resp.Uploaded {
		t.Errorf("noise response %+v", resp)
	}

	uploads := assistant.uploads
	if len(uploads) != 1 {
		t.Fatalf("%d uploads, want 1", len(uploads))
	}
	if uploads[0].Source != "owner" || !uploads[0].Time.Equal(clock) {
		t.Errorf("upload record %+v", uploads[0])
	}
	bySource := assistant.UploadsBySource()
	if bySource["owner"] != 1 || bySource["tv"] != 0 {
		t.Errorf("uploads by source %v", bySource)
	}
}

func TestNewAssistantValidation(t *testing.T) {
	if _, err := NewAssistant("x", nil, nil, nil); err == nil {
		t.Error("expected error for nil components")
	}
}

func TestFingerprintErrors(t *testing.T) {
	if _, err := fingerprint(make([]float64, 10), 16000); err == nil {
		t.Error("expected error for too-short audio")
	}
}
