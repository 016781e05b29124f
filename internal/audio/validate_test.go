package audio

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// noiseRecording returns a healthy Gaussian recording: loud (sigma 1,
// peaks well past 1.0) but not clipped — amplitude alone must never
// trip the clip detector.
func noiseRecording(channels, n int, seed uint64) *Recording {
	rng := rand.New(rand.NewPCG(seed, 11))
	rec := NewRecording(48000, channels, n)
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = rng.NormFloat64()
		}
	}
	return rec
}

func reasonOf(t *testing.T, err error) BadInputReason {
	t.Helper()
	bad, ok := AsBadInput(err)
	if !ok {
		t.Fatalf("error %v is not *ErrBadInput", err)
	}
	return bad.Reason
}

func TestValidateAcceptsHealthyRecording(t *testing.T) {
	if err := Validate(noiseRecording(4, 4800, 1), ValidateOptions{SampleRate: 48000}); err != nil {
		t.Fatalf("healthy recording rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	clipped := NewRecording(48000, 2, 4800)
	for c := range clipped.Channels {
		for i := range clipped.Channels[c] {
			// Hard-clipped square-ish wave: half the samples pinned at
			// the rail.
			if i%2 == 0 {
				clipped.Channels[c][i] = 1.0
			} else {
				clipped.Channels[c][i] = 0.1
			}
		}
	}
	nan := noiseRecording(2, 4800, 2)
	nan.Channels[1][100] = math.NaN()
	inf := noiseRecording(2, 4800, 3)
	inf.Channels[0][7] = math.Inf(1)
	ragged := noiseRecording(2, 4800, 4)
	ragged.Channels[1] = ragged.Channels[1][:100]
	wrongRate := noiseRecording(2, 4800, 5)
	wrongRate.SampleRate = 16000

	cases := []struct {
		name string
		rec  *Recording
		opt  ValidateOptions
		want BadInputReason
	}{
		{"nil", nil, ValidateOptions{}, BadNil},
		{"no channels", &Recording{SampleRate: 48000}, ValidateOptions{}, BadNoChannels},
		{"empty", NewRecording(48000, 2, 0), ValidateOptions{}, BadEmpty},
		{"ragged", ragged, ValidateOptions{}, BadRagged},
		{"zero rate", &Recording{Channels: [][]float64{{1}}}, ValidateOptions{}, BadSampleRate},
		{"nan rate", &Recording{SampleRate: math.NaN(), Channels: [][]float64{{1}}}, ValidateOptions{}, BadSampleRate},
		{"rate mismatch", wrongRate, ValidateOptions{SampleRate: 48000}, BadSampleRate},
		{"too short", noiseRecording(2, 100, 6), ValidateOptions{}, BadTooShort},
		{"too long", noiseRecording(1, 4800, 7), ValidateOptions{MaxDuration: time.Millisecond}, BadTooLong},
		{"nan samples", nan, ValidateOptions{}, BadNonFinite},
		{"inf samples", inf, ValidateOptions{}, BadNonFinite},
		{"clipped", clipped, ValidateOptions{}, BadClipped},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := Validate(c.rec, c.opt)
			if err == nil {
				t.Fatalf("Validate(%s) accepted bad input", c.name)
			}
			if got := reasonOf(t, err); got != c.want {
				t.Fatalf("reason = %s, want %s (err: %v)", got, c.want, err)
			}
		})
	}
}

func TestValidateDisabledChecks(t *testing.T) {
	short := noiseRecording(1, 10, 8)
	if err := Validate(short, ValidateOptions{MinDuration: -1}); err != nil {
		t.Fatalf("MinDuration<0 should disable the length check: %v", err)
	}
	if err := Validate(short, ValidateOptions{}); err == nil {
		t.Fatal("default options should reject a 10-sample recording")
	}
}

func TestValidateRateTolerance(t *testing.T) {
	rec := noiseRecording(2, 4800, 9)
	rec.SampleRate = 48010
	if err := Validate(rec, ValidateOptions{SampleRate: 48000}); err == nil {
		t.Fatal("exact-match rate check should reject 48010 Hz")
	}
	if err := Validate(rec, ValidateOptions{SampleRate: 48000, RateTolerance: 0.01}); err != nil {
		t.Fatalf("1%% tolerance should accept 48010 Hz: %v", err)
	}
}

func TestErrBadInputMessage(t *testing.T) {
	err := &ErrBadInput{Reason: BadNonFinite, Detail: "3 NaN/Inf samples", Count: 3}
	if err.Error() == "" {
		t.Fatal("empty message")
	}
	var target *ErrBadInput
	if !errors.As(error(err), &target) || target.Count != 3 {
		t.Fatal("errors.As should surface the typed error")
	}
	if len(BadInputReasons()) != 9 {
		t.Fatalf("BadInputReasons() lists %d reasons, want 9", len(BadInputReasons()))
	}
}
