package audio

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Input hardening for the serving path: recordings arrive from
// microphones, WAV files and network peers, and any of them can carry
// NaN/Inf samples, clipped waveforms, truncated captures or the wrong
// sample rate. HeadTalk is a privacy control, so a malformed recording
// must be rejected *before* DSP — garbage features reaching the SVM
// could flip a reject into an accept. Validate is that gate.

// BadInputReason classifies why a recording failed validation. The
// values double as metrics label segments.
type BadInputReason string

// Validation failure reasons.
const (
	BadNil        BadInputReason = "nil_recording"
	BadNoChannels BadInputReason = "no_channels"
	BadEmpty      BadInputReason = "empty"
	BadRagged     BadInputReason = "ragged_channels"
	BadSampleRate BadInputReason = "sample_rate"
	BadTooShort   BadInputReason = "too_short"
	BadTooLong    BadInputReason = "too_long"
	BadNonFinite  BadInputReason = "non_finite"
	BadClipped    BadInputReason = "clipped"
)

// BadInputReasons lists every validation failure class (for metrics
// pre-registration and exhaustive tests).
func BadInputReasons() []BadInputReason {
	return []BadInputReason{
		BadNil, BadNoChannels, BadEmpty, BadRagged, BadSampleRate,
		BadTooShort, BadTooLong, BadNonFinite, BadClipped,
	}
}

// ErrBadInput is the typed error returned by Validate. Callers match it
// with errors.As and branch on Reason.
type ErrBadInput struct {
	Reason BadInputReason
	Detail string
	// Count is the number of offending samples for sample-level faults
	// (non-finite, clipped); zero for structural faults.
	Count int
}

// Error implements error.
func (e *ErrBadInput) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("audio: bad input (%s)", e.Reason)
	}
	return fmt.Sprintf("audio: bad input (%s): %s", e.Reason, e.Detail)
}

// AsBadInput unwraps err to an *ErrBadInput if one is in its chain.
func AsBadInput(err error) (*ErrBadInput, bool) {
	var e *ErrBadInput
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}

// ValidateOptions tunes Validate. The zero value applies the defaults
// noted on each field; negative durations disable the corresponding
// check.
type ValidateOptions struct {
	// SampleRate is the expected rate; 0 accepts any positive rate.
	SampleRate float64
	// RateTolerance is the accepted fractional deviation from
	// SampleRate (default 0: exact match).
	RateTolerance float64
	// MinDuration rejects truncated captures (default 10 ms — shorter
	// than any wake word fragment worth scoring). Negative disables.
	MinDuration time.Duration
	// MaxDuration rejects runaway captures that would stall the DSP
	// path (default 30 s). Negative disables.
	MaxDuration time.Duration
}

// A channel whose peak reaches clipLevel of full scale (the converter
// rail) is rejected when more than maxClippedFraction of its samples
// sit pinned at its own peak. Clipping is detected as rail
// concentration, not mere amplitude, so loud-but-healthy signals pass.
const (
	clipLevel          = 0.999
	maxClippedFraction = 0.05
)

func (o ValidateOptions) withDefaults() ValidateOptions {
	if o.MinDuration == 0 {
		o.MinDuration = 10 * time.Millisecond
	}
	if o.MaxDuration == 0 {
		o.MaxDuration = 30 * time.Second
	}
	return o
}

// Validate checks a recording against opt and returns nil or an
// *ErrBadInput describing the first failure found. Checks run cheapest
// first so structurally-broken input never reaches the sample scan.
func Validate(rec *Recording, opt ValidateOptions) error {
	opt = opt.withDefaults()
	if rec == nil {
		return &ErrBadInput{Reason: BadNil, Detail: "nil recording"}
	}
	if len(rec.Channels) == 0 {
		return &ErrBadInput{Reason: BadNoChannels, Detail: "recording has no channels"}
	}
	if rec.SampleRate <= 0 || math.IsNaN(rec.SampleRate) || math.IsInf(rec.SampleRate, 0) {
		return &ErrBadInput{Reason: BadSampleRate, Detail: fmt.Sprintf("sample rate %g", rec.SampleRate)}
	}
	if opt.SampleRate > 0 {
		if diff := math.Abs(rec.SampleRate-opt.SampleRate) / opt.SampleRate; diff > opt.RateTolerance {
			return &ErrBadInput{
				Reason: BadSampleRate,
				Detail: fmt.Sprintf("sample rate %g Hz, want %g Hz", rec.SampleRate, opt.SampleRate),
			}
		}
	}
	n := len(rec.Channels[0])
	for i, ch := range rec.Channels {
		if len(ch) != n {
			return &ErrBadInput{
				Reason: BadRagged,
				Detail: fmt.Sprintf("channel %d has %d samples, channel 0 has %d", i, len(ch), n),
			}
		}
	}
	if n == 0 {
		return &ErrBadInput{Reason: BadEmpty, Detail: "zero-length channels"}
	}
	dur := time.Duration(float64(n) / rec.SampleRate * float64(time.Second))
	if opt.MinDuration > 0 && dur < opt.MinDuration {
		return &ErrBadInput{
			Reason: BadTooShort,
			Detail: fmt.Sprintf("duration %v < minimum %v", dur, opt.MinDuration),
		}
	}
	if opt.MaxDuration > 0 && dur > opt.MaxDuration {
		return &ErrBadInput{
			Reason: BadTooLong,
			Detail: fmt.Sprintf("duration %v > maximum %v", dur, opt.MaxDuration),
		}
	}

	// One pass over the samples: count non-finite values and, per
	// channel, samples pinned at the channel's own maximum amplitude.
	nonFinite := 0
	clipped := 0
	for _, ch := range rec.Channels {
		maxAbs, nf := scanChannel(ch)
		nonFinite += nf
		if maxAbs < clipLevel {
			continue
		}
		rail := maxAbs * (1 - 1e-6)
		atRail := 0
		for _, v := range ch {
			if a := math.Abs(v); !math.IsNaN(a) && a >= rail && !math.IsInf(a, 0) {
				atRail++
			}
		}
		// A lone peak sample is not clipping; require a concentration
		// of at least a few samples at the rail.
		if atRail > 2 && float64(atRail)/float64(n) > maxClippedFraction {
			clipped += atRail
		}
	}
	if nonFinite > 0 {
		return &ErrBadInput{
			Reason: BadNonFinite,
			Detail: fmt.Sprintf("%d NaN/Inf samples", nonFinite),
			Count:  nonFinite,
		}
	}
	if clipped > 0 {
		return &ErrBadInput{
			Reason: BadClipped,
			Detail: fmt.Sprintf("%d samples pinned at the clip rail", clipped),
			Count:  clipped,
		}
	}
	return nil
}

// scanChannel returns the channel's maximum finite absolute amplitude
// and its NaN/Inf sample count. It is the validation hot loop — every
// sample of every request passes through it — so it runs four
// accumulators wide: a block whose sum is finite provably contains only
// finite samples (NaN and ±Inf are absorbing under addition), letting
// the common all-clean case skip per-sample finiteness checks entirely.
// A block whose sum is non-finite (or overflows to Inf) is re-scanned
// sample by sample, keeping the counts exact.
func scanChannel(ch []float64) (maxAbs float64, nonFinite int) {
	var m0, m1, m2, m3 float64
	i := 0
	for ; i+4 <= len(ch); i += 4 {
		v0, v1, v2, v3 := ch[i], ch[i+1], ch[i+2], ch[i+3]
		if s := v0 + v1 + v2 + v3; s-s != 0 {
			for _, v := range ch[i : i+4] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					nonFinite++
				} else if a := math.Abs(v); a > m0 {
					m0 = a
				}
			}
			continue
		}
		if a := math.Abs(v0); a > m0 {
			m0 = a
		}
		if a := math.Abs(v1); a > m1 {
			m1 = a
		}
		if a := math.Abs(v2); a > m2 {
			m2 = a
		}
		if a := math.Abs(v3); a > m3 {
			m3 = a
		}
	}
	for _, v := range ch[i:] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			nonFinite++
		} else if a := math.Abs(v); a > m0 {
			m0 = a
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0, nonFinite
}
