package liveness

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/dsp"
	"headtalk/internal/speech"
)

func TestFramesShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, 16000) // 1 s at 16 kHz
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	frames, err := Frames(x, 16000)
	if err != nil {
		t.Fatal(err)
	}
	// (16000-400)/160+1 = 98 frames.
	if len(frames) != 98 {
		t.Errorf("%d frames, want 98", len(frames))
	}
	for _, f := range frames {
		if len(f) != NumFilters {
			t.Fatalf("frame width %d, want %d", len(f), NumFilters)
		}
	}
}

func TestFramesResamples48k(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	x := make([]float64, 48000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	frames, err := Frames(x, 48000)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 90 || len(frames) > 100 {
		t.Errorf("%d frames from 1 s at 48 kHz", len(frames))
	}
}

func TestFramesNormalized(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	x := make([]float64, 16000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	frames, err := Frames(x, 16000)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < NumFilters; f++ {
		col := make([]float64, len(frames))
		for t2 := range frames {
			col[t2] = frames[t2][f]
		}
		if m := dsp.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("filter %d column mean %g, want 0", f, m)
		}
	}
}

func TestFramesAmplitudeInvariance(t *testing.T) {
	// Z-scoring the waveform + per-utterance normalization makes the
	// features level-invariant.
	rng := rand.New(rand.NewPCG(7, 8))
	x := make([]float64, 16000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	loud := make([]float64, len(x))
	for i := range x {
		loud[i] = 100 * x[i]
	}
	a, err := Frames(x, 16000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Frames(loud, 16000)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range a {
		for fi := range a[ti] {
			if math.Abs(a[ti][fi]-b[ti][fi]) > 1e-6 {
				t.Fatalf("amplitude leaked into features at (%d,%d)", ti, fi)
			}
		}
	}
}

func TestFramesErrors(t *testing.T) {
	if _, err := Frames(nil, 16000); err == nil {
		t.Error("expected error for empty waveform")
	}
	if _, err := Frames(make([]float64, 100), 16000); err == nil {
		t.Error("expected error for too-short waveform")
	}
}

// synthPair builds human and replayed utterances at 16 kHz.
func synthPair(n int, seed uint64) (waveforms [][]float64, labels []int) {
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < n; i++ {
		voice := speech.RandomVoice(rng)
		human := speech.Synthesize(speech.WordComputer, voice, 16000, rng)
		waveforms = append(waveforms, human.Samples)
		labels = append(labels, LabelHuman)
		profile := speech.ReplayProfiles()[i%3]
		replayed := speech.RenderMechanical(human, profile, rng)
		waveforms = append(waveforms, replayed.Samples)
		labels = append(labels, LabelSpoof)
	}
	return waveforms, labels
}

func TestDetectorSeparatesHumanFromReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness training is slow")
	}
	trainW, trainY := synthPair(16, 11)
	det := NewDetector(1)
	det.net.Cfg.Epochs = 20
	if err := det.Train(trainW, 16000, trainY); err != nil {
		t.Fatal(err)
	}
	testW, testY := synthPair(10, 12)
	eer, _, acc, err := det.Evaluate(testW, 16000, testY)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("liveness accuracy %g", acc)
	}
	if eer > 0.2 {
		t.Errorf("liveness EER %g", eer)
	}
}

func TestDetectorAdaptDoesNotDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness training is slow")
	}
	trainW, trainY := synthPair(12, 13)
	det := NewDetector(2)
	det.net.Cfg.Epochs = 15
	if err := det.Train(trainW, 16000, trainY); err != nil {
		t.Fatal(err)
	}
	moreW, moreY := synthPair(6, 14)
	if err := det.Adapt(moreW, 16000, moreY, 5); err != nil {
		t.Fatal(err)
	}
	testW, testY := synthPair(8, 15)
	_, _, acc, err := det.Evaluate(testW, 16000, testY)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Errorf("accuracy after adaptation %g", acc)
	}
}

func TestDetectorErrors(t *testing.T) {
	det := NewDetector(3)
	if err := det.Train([][]float64{{1}}, 16000, []int{0, 1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if err := det.Train([][]float64{make([]float64, 10)}, 16000, []int{0}); err == nil {
		t.Error("expected too-short-waveform error")
	}
}

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	trainW, trainY := synthPair(6, 17)
	det := NewDetector(4)
	det.net.Cfg.Epochs = 4
	if err := det.Train(trainW, 16000, trainY); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probe := trainW[0]
	a, err := det.Score(probe, 16000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Score(probe, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("score mismatch after reload: %g vs %g", a, b)
	}
	// Still adaptable after a reload.
	if err := loaded.Adapt(trainW[:2], 16000, trainY[:2], 1); err != nil {
		t.Fatal(err)
	}
}
