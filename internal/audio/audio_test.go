package audio

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/dsp"
)

func TestBufferBasics(t *testing.T) {
	b := NewBuffer(48000, 4)
	if b.SampleRate != 48000 || len(b.Samples) != 4 {
		t.Fatalf("NewBuffer = %g Hz, %d samples", b.SampleRate, len(b.Samples))
	}
	if b.RMS() != 0 {
		t.Errorf("RMS of a zeroed buffer = %g", b.RMS())
	}
	copy(b.Samples, []float64{1, -1, 1, -1})
	if b.RMS() != 1 {
		t.Errorf("RMS of a ±1 square wave = %g, want 1", b.RMS())
	}
	if (&Buffer{}).RMS() != 0 {
		t.Error("RMS of an empty buffer should be 0")
	}
}

func TestRecordingChannelOps(t *testing.T) {
	r := NewRecording(48000, 3, 10)
	if r.Len() != 10 {
		t.Errorf("Len = %d", r.Len())
	}
	r.Channels[1][0] = 3
	sel, err := r.Select([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Channels) != 2 || sel.Channels[0][0] != 3 {
		t.Error("Select returned wrong channels")
	}
	if _, err := r.Select([]int{5}); err == nil {
		t.Error("expected error for out-of-range channel")
	}
	mono := r.Mono()
	if mono[0] != 1 {
		t.Errorf("Mono[0] = %g, want mean 1", mono[0])
	}
}

func TestEmptyRecording(t *testing.T) {
	r := &Recording{SampleRate: 48000}
	if r.Len() != 0 {
		t.Error("empty recording length should be 0")
	}
	if len(r.Mono()) != 0 {
		t.Error("empty recording mono should be empty")
	}
}

func TestWAVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	rec := NewRecording(48000, 4, 1000)
	for _, ch := range rec.Channels {
		for i := range ch {
			ch[i] = rng.Float64()*1.6 - 0.8
		}
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleRate != 48000 || len(got.Channels) != 4 || got.Len() != 1000 {
		t.Fatalf("shape mismatch: %g Hz, %d ch, %d samples", got.SampleRate, len(got.Channels), got.Len())
	}
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			if math.Abs(got.Channels[c][i]-rec.Channels[c][i]) > 1.0/32000 {
				t.Fatalf("sample mismatch ch %d idx %d: %g vs %g", c, i, got.Channels[c][i], rec.Channels[c][i])
			}
		}
	}
}

func TestWAVClipsOutOfRange(t *testing.T) {
	rec := NewRecording(8000, 1, 2)
	rec.Channels[0][0] = 5
	rec.Channels[0][1] = -5
	var buf bytes.Buffer
	if err := WriteWAV(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Channels[0][0] != 1 || got.Channels[0][1] != -1 {
		t.Errorf("clipping wrong: %g %g", got.Channels[0][0], got.Channels[0][1])
	}
}

func TestWAVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, &Recording{SampleRate: 48000}); err == nil {
		t.Error("expected error for zero channels")
	}
	if _, err := ReadWAV(bytes.NewReader([]byte("not a wav file at all"))); err == nil {
		t.Error("expected error for garbage input")
	}
	// Ragged channels.
	bad := &Recording{SampleRate: 48000, Channels: [][]float64{make([]float64, 3), make([]float64, 5)}}
	if err := WriteWAV(&buf, bad); err == nil {
		t.Error("expected error for ragged channels")
	}
}

func TestSPLConversions(t *testing.T) {
	// 94 dB SPL is the 1.0 RMS calibration point.
	if got := SPLToRMS(94); math.Abs(got-1) > 1e-12 {
		t.Errorf("SPLToRMS(94) = %g", got)
	}
	// 20 dB less is 10x smaller amplitude.
	if got := SPLToRMS(74); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("SPLToRMS(74) = %g", got)
	}
}

func TestSetSPL(t *testing.T) {
	x := make([]float64, 1000)
	for i := range x {
		x[i] = math.Sin(float64(i) / 10)
	}
	SetSPL(x, 70)
	if got := dsp.RMS(x); math.Abs(got/SPLToRMS(70)-1) > 1e-3 {
		t.Errorf("SetSPL produced RMS %g, want %g", got, SPLToRMS(70))
	}
	silent := make([]float64, 10)
	SetSPL(silent, 70) // must not panic or produce NaN
	for _, v := range silent {
		if v != 0 {
			t.Error("silence should stay silent")
		}
	}
}

func TestGainDB(t *testing.T) {
	if got := DBToGain(20); math.Abs(got-10) > 1e-12 {
		t.Errorf("DBToGain(20) = %g", got)
	}
}

func TestNoiseGeneratorsBasic(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, kind := range []NoiseKind{WhiteNoise, PinkNoise, TVNoise} {
		x := GenerateNoise(kind, 48000, 48000, rng)
		if len(x) != 48000 {
			t.Fatalf("%s: length %d", kind, len(x))
		}
		if r := dsp.RMS(x); r < 0.01 || r > 10 {
			t.Errorf("%s: RMS %g not unit-ish", kind, r)
		}
	}
}

func TestPinkNoiseSpectralSlope(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	pink := GenerateNoise(PinkNoise, 1<<16, 48000, rng)
	psd, err := new(dsp.PSDWorkspace).WelchPSD(nil, pink, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Pink noise: power per octave constant => band power declines
	// ~3 dB/octave. Compare 500-1k against 4k-8k: expect ~9 dB drop.
	low := bandPower(psd, 4096, 48000, 500, 1000)
	high := bandPower(psd, 4096, 48000, 4000, 8000)
	ratioDB := 10 * math.Log10(low/high)
	if ratioDB < 4 || ratioDB > 15 {
		t.Errorf("pink noise 500-1k vs 4k-8k per-bin power ratio = %.1f dB, want ~9", ratioDB)
	}
}

func bandPower(psd []float64, frameLen int, fs, lo, hi float64) float64 {
	loBin := dsp.FreqBin(lo, frameLen, fs)
	hiBin := dsp.FreqBin(hi, frameLen, fs)
	var acc float64
	count := 0
	for i := loBin; i <= hiBin && i < len(psd); i++ {
		acc += psd[i]
		count++
	}
	return acc / float64(count)
}

func TestTVNoiseHasLevelFluctuation(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	tv := GenerateNoise(TVNoise, 96000, 48000, rng)
	// Per-0.2s RMS should vary substantially (dialogue pacing).
	seg := 9600
	var levels []float64
	for start := 0; start+seg <= len(tv); start += seg {
		levels = append(levels, dsp.RMS(tv[start:start+seg]))
	}
	mean := dsp.Mean(levels)
	if mean == 0 {
		t.Fatal("silent TV noise")
	}
	if cv := dsp.Std(levels) / mean; cv < 0.1 {
		t.Errorf("TV noise level variation too small (cv=%g)", cv)
	}
}

func TestNoiseKindString(t *testing.T) {
	if WhiteNoise.String() != "white" || PinkNoise.String() != "pink" || TVNoise.String() != "tv" {
		t.Error("NoiseKind names wrong")
	}
	if NoiseKind(99).String() != "unknown" {
		t.Error("unknown NoiseKind should say so")
	}
}
