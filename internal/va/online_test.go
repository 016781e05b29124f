package va

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/speech"
)

// TestOnlineSpotterMatchesBatch: feeding the batch fingerprint's frames
// through the online scorer one hop at a time must reproduce the batch
// scan's best score — the online path reuses every transformed hop, it
// does not approximate.
func TestOnlineSpotterMatchesBatch(t *testing.T) {
	s, err := NewSpotter(speech.WordComputer, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), SpotterSampleRate, rng)
	_, batchBest, _ := s.Detect(buf.Samples, SpotterSampleRate)

	fp, err := fingerprint(buf.Samples, SpotterSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	frames := len(fp) / spotBands
	if frames < s.TemplateFrames() {
		t.Fatalf("synthesized word too short: %d frames < template %d", frames, s.TemplateFrames())
	}
	o := s.NewOnline()
	onlineBest := -1.0
	readyCount := 0
	for i := 0; i < frames; i++ {
		score, ready := o.PushFrame(fp[i*spotBands : (i+1)*spotBands])
		if ready {
			readyCount++
			if score > onlineBest {
				onlineBest = score
			}
		}
	}
	wantWindows := frames - s.TemplateFrames() + 1
	if readyCount != wantWindows {
		t.Fatalf("online scorer produced %d windows, want %d", readyCount, wantWindows)
	}
	if math.Abs(onlineBest-batchBest) > 1e-9 {
		t.Fatalf("online best %g != batch best %g", onlineBest, batchBest)
	}
}

// TestOnlineSpotterReset: after Reset the scorer must re-accumulate a
// full window before reporting ready.
func TestOnlineSpotterReset(t *testing.T) {
	s, err := NewSpotter(speech.WordComputer, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	o := s.NewOnline()
	frame := make([]float64, spotBands)
	for i := 1; i < s.TemplateFrames(); i++ {
		if _, ready := o.PushFrame(frame); ready {
			t.Fatalf("scorer ready after %d of %d frames", i, s.TemplateFrames())
		}
	}
	if _, ready := o.PushFrame(frame); !ready {
		t.Fatal("scorer not ready after a full window")
	}
	o.Reset()
	if _, ready := o.PushFrame(frame); ready {
		t.Fatal("one frame after Reset reported ready")
	}
}

// TestFingerprinterMatchesBatch: Frame must reproduce the batch
// fingerprint's values hop by hop.
func TestFingerprinterMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), SpotterSampleRate, rng)
	want, err := fingerprint(buf.Samples, SpotterSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFingerprinter(SpotterSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, f.Bands())
	idx := 0
	for start := 0; start+f.FrameLen() <= len(buf.Samples); start += f.Hop() {
		f.Frame(dst, buf.Samples[start:start+f.FrameLen()])
		for b, v := range dst {
			if math.Abs(v-want[idx*spotBands+b]) > 1e-12 {
				t.Fatalf("frame %d band %d = %g, want %g", idx, b, v, want[idx*spotBands+b])
			}
		}
		idx++
	}
}

// TestOnlineSpotterAllocs pins the streaming hot path: one fingerprint
// frame plus one online score must not allocate in steady state.
func TestOnlineSpotterAllocs(t *testing.T) {
	s, err := NewSpotter(speech.WordComputer, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFingerprinter(SpotterSampleRate)
	if err != nil {
		t.Fatal(err)
	}
	o := s.NewOnline()
	samples := make([]float64, f.FrameLen())
	rng := rand.New(rand.NewPCG(9, 10))
	for i := range samples {
		samples[i] = rng.NormFloat64() * 0.1
	}
	dst := make([]float64, f.Bands())
	// Warm: fill the window so PushFrame runs the scoring branch.
	for i := 0; i <= s.TemplateFrames(); i++ {
		f.Frame(dst, samples)
		o.PushFrame(dst)
	}
	if avg := testing.AllocsPerRun(100, func() {
		f.Frame(dst, samples)
		o.PushFrame(dst)
	}); avg != 0 {
		t.Errorf("fingerprint+score hop allocates %.1f times per op, want 0", avg)
	}
}
