package core_test

import (
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/liveness"
)

// The ladder benchmarks time the gates that run before orientation, one
// kernel at a time, on what a serving worker feeds them: a 1.1 s
// 4-channel 48 kHz capture (52 800 samples per channel) of the served
// golden's facing wake, and the served enrollment's models. Run with
// -benchmem; each should report 0 allocs/op.

const ladderN = 52800

// ladderCapture returns the facing wake cropped or zero-padded to
// ladderN samples per channel.
func ladderCapture(b *testing.B) *audio.Recording {
	b.Helper()
	src := servedCaptureNamed(b, servedCaptures(b), "facing-1m")
	rec := audio.NewRecording(src.SampleRate, len(src.Channels), ladderN)
	for c, ch := range src.Channels {
		copy(rec.Channels[c], ch)
	}
	return rec
}

// ladderBandpass returns the served band-pass (5th-order Butterworth,
// 100 Hz - 16 kHz) and the capture's band-passed mono mix.
func ladderBandpass(b *testing.B, rec *audio.Recording) (*dsp.IIRFilter, []float64) {
	b.Helper()
	bp, err := dsp.NewButterworthBandPass(5, 100, 16000, rec.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	pre := audio.NewRecording(rec.SampleRate, len(rec.Channels), rec.Len())
	for c, ch := range rec.Channels {
		bp.ApplyTo(pre.Channels[c], ch)
	}
	return bp, pre.Mono()
}

// BenchmarkBandpass filters all four channels.
func BenchmarkBandpass(b *testing.B) {
	rec := ladderCapture(b)
	bp, _ := ladderBandpass(b, rec)
	dst := make([]float64, ladderN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ch := range rec.Channels {
			bp.ApplyTo(dst, ch)
		}
	}
}

// BenchmarkDecimate takes the band-passed mono mix to 16 kHz, the
// spectral liveness front end's first step.
func BenchmarkDecimate(b *testing.B) {
	_, mono := ladderBandpass(b, ladderCapture(b))
	dst := make([]float64, ladderN/3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsp.DecimateInto(dst, mono, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLivenessScore scores the band-passed mono mix with the
// spectral ConvNet gate: decimation, z-score, STFT, filterbank and
// inference.
func BenchmarkLivenessScore(b *testing.B) {
	enr := servedEnrollment(b)
	rec := ladderCapture(b)
	_, mono := ladderBandpass(b, rec)
	var ws liveness.Workspace
	score := func() {
		if _, err := enr.Liveness.ScoreWith(&ws, mono, rec.SampleRate); err != nil {
			b.Fatal(err)
		}
	}
	score() // warm the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score()
	}
}

// BenchmarkFingerprintCheck checks the raw capture against the array
// fingerprint: a Welch PSD per channel, then the band profile.
func BenchmarkFingerprintCheck(b *testing.B) {
	enr := servedEnrollment(b)
	rec := ladderCapture(b)
	var ws liveness.Workspace
	check := func() {
		if _, _, err := enr.ArrayFingerprint.CheckWith(&ws, rec); err != nil {
			b.Fatal(err)
		}
	}
	check() // warm the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
}
