package liveness

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
)

// coloredCapture synthesizes a 4-channel recording of noise through a
// simple coloration filter: a moving average of length taps (taps=1 is
// white). Different tap counts give clearly different long-term band
// profiles — a stand-in for "same array" vs "through a playback chain".
func coloredCapture(seed uint64, taps, n int) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 77))
	rec := audio.NewRecording(48000, 4, n)
	for c := range rec.Channels {
		raw := make([]float64, n+taps)
		for i := range raw {
			raw[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			var s float64
			for k := 0; k < taps; k++ {
				s += raw[i+k]
			}
			rec.Channels[c][i] = s / float64(taps)
		}
	}
	return rec
}

func trainedFingerprint(t *testing.T, taps int) *ArrayFingerprint {
	t.Helper()
	var recs []*audio.Recording
	for i := 0; i < 4; i++ {
		recs = append(recs, coloredCapture(uint64(100+i), taps, 24000))
	}
	fp, err := TrainArrayFingerprint(recs, FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestFingerprintSeparatesColorations(t *testing.T) {
	fp := trainedFingerprint(t, 1)

	_, same, err := fp.Check(coloredCapture(500, 1, 24000))
	if err != nil {
		t.Fatal(err)
	}
	_, other, err := fp.Check(coloredCapture(501, 12, 24000))
	if err != nil {
		t.Fatal(err)
	}
	if same <= other {
		t.Fatalf("matching coloration scored %.3f, foreign %.3f — want matching higher", same, other)
	}
	okSame, _, err := fp.Check(coloredCapture(502, 1, 24000))
	if err != nil {
		t.Fatal(err)
	}
	if !okSame {
		t.Fatal("capture through the enrolled coloration should pass")
	}
	okOther, score, err := fp.Check(coloredCapture(503, 12, 24000))
	if err != nil {
		t.Fatal(err)
	}
	if okOther {
		t.Fatalf("capture through a foreign playback chain passed at %.3f", score)
	}
}

func TestFingerprintTrainingValidation(t *testing.T) {
	if _, err := TrainArrayFingerprint(nil, FingerprintConfig{}); err == nil {
		t.Fatal("training with no captures should fail")
	}
	if _, err := TrainArrayFingerprint([]*audio.Recording{coloredCapture(1, 1, 8000)}, FingerprintConfig{}); err == nil {
		t.Fatal("training with one capture should fail (no tolerance estimate)")
	}
	mixed := []*audio.Recording{coloredCapture(1, 1, 8000), audio.NewRecording(16000, 4, 8000)}
	if _, err := TrainArrayFingerprint(mixed, FingerprintConfig{}); err == nil {
		t.Fatal("mixed sample rates should fail")
	}

	fp := trainedFingerprint(t, 1)
	if _, _, err := fp.Check(audio.NewRecording(16000, 4, 8000)); err == nil {
		t.Fatal("scoring at a foreign sample rate should fail")
	}
	if _, _, err := fp.Check(nil); err == nil {
		t.Fatal("scoring nil should fail")
	}
}

func TestFingerprintSaveLoadByteStable(t *testing.T) {
	fp := trainedFingerprint(t, 1)
	var b1 bytes.Buffer
	if err := fp.Save(&b1); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFingerprint(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := loaded.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("save → load → save is not byte-stable")
	}

	// The reloaded model scores identically.
	rec := coloredCapture(600, 1, 24000)
	_, s1, err := fp.Check(rec)
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := loaded.Check(rec)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("reloaded fingerprint scores %.6f vs %.6f", s2, s1)
	}

	// Damage surfaces as typed errors.
	if _, err := LoadFingerprint(bytes.NewReader([]byte("{bad"))); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("garbage: %v, want ErrCorruptModel", err)
	}
	tampered := bytes.Replace(b1.Bytes(), []byte(`"version":1`), []byte(`"version":9`), 1)
	if _, err := LoadFingerprint(bytes.NewReader(tampered)); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: %v, want ErrUnsupportedVersion", err)
	}
}
