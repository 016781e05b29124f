package liveness

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
)

// framesRef is the spectral front end as plain loops on fresh buffers:
// full FIR filtering then picking every third sample for 48 kHz input,
// a freshly computed window, and the dense filterbank.
func framesRef(x []float64, fs float64) [][]float64 {
	wav := x
	if fs == 48000 {
		taps := dsp.FIRLowPass(25, 0.45/3, 1.0)
		filtered := dsp.FIRFilter(x, taps)
		delay := (len(taps) - 1) / 2
		wav = nil
		for i := 0; i < len(x); i += 3 {
			j := min(i+delay, len(x)-1)
			wav = append(wav, filtered[j])
		}
	}
	wav = dsp.ZScore(wav)
	fb := filterbank()
	win := dsp.Hann.Coefficients(frameLen)
	var frames [][]float64
	buf := make([]float64, fftSize)
	for start := 0; start+frameLen <= len(wav); start += frameHop {
		for i := 0; i < frameLen; i++ {
			buf[i] = wav[start+i] * win[i]
		}
		pow := dsp.PowerInto(nil, dsp.Plan(fftSize).RFFT(nil, buf))
		frame := make([]float64, NumFilters)
		for f := range frame {
			var acc float64
			for b, w := range fb[f] {
				if w != 0 {
					acc += w * pow[b]
				}
			}
			frame[f] = math.Log(acc + logFloorEps)
		}
		frames = append(frames, frame)
	}
	for f := 0; f < NumFilters; f++ {
		col := make([]float64, len(frames))
		for t := range frames {
			col[t] = frames[t][f]
		}
		m, s := dsp.Mean(col), dsp.Std(col)
		if s < 1e-9 {
			s = 1
		}
		for t := range frames {
			frames[t][f] = (frames[t][f] - m) / s
		}
	}
	return frames
}

func noise(seed uint64, n int) []float64 {
	rng := rand.New(rand.NewPCG(seed, 3))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * (1 + math.Sin(float64(i)/700))
	}
	return x
}

// Every filterbank row's nonzero weights are contiguous, so iterating
// only the trimmed range visits exactly the bins the dense loop adds.
func TestFilterRowsCoverEveryNonzeroWeight(t *testing.T) {
	rows, _ := frontendTables()
	for f, dense := range filterbank() {
		r := rows[f]
		for b, w := range dense {
			in := b >= r.lo && b < r.lo+len(r.w)
			if in && (w == 0 || w != r.w[b-r.lo]) || !in && w != 0 {
				t.Fatalf("filter %d bin %d: weight %g, row [%d,%d)", f, b, w, r.lo, r.lo+len(r.w))
			}
		}
	}
}

// One Workspace reused over waveforms of different lengths and rates
// yields exactly the reference frames.
func TestWorkspaceFramesMatchReference(t *testing.T) {
	var w Workspace
	for i, c := range []struct {
		n  int
		fs float64
	}{{52800, 48000}, {16000, 16000}, {72000, 48000}, {1300, 48000}, {30000, 48000}, {8000, 16000}} {
		x := noise(uint64(i+1), c.n)
		got, err := w.Frames(x, c.fs)
		if err != nil {
			t.Fatal(err)
		}
		want := framesRef(x, c.fs)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d frames, want %d", i, len(got), len(want))
		}
		for ti := range want {
			for f := range want[ti] {
				if math.Float64bits(got[ti][f]) != math.Float64bits(want[ti][f]) {
					t.Fatalf("case %d frame %d filter %d: %v, want %v", i, ti, f, got[ti][f], want[ti][f])
				}
			}
		}
	}
}

// A reused Workspace scores both gates exactly as a fresh one does.
func TestWorkspaceScoresMatchFresh(t *testing.T) {
	det := NewDetector(3)
	det.net.Cfg.Epochs = 2
	waves, labels := synthPair(3, 5)
	if err := det.Train(waves, 16000, labels); err != nil {
		t.Fatal(err)
	}
	fp := trainedFingerprint(t, 1)
	var w Workspace
	for i, n := range []int{52800, 9000, 72000, 24000, 12000} {
		rec := coloredCapture(uint64(200+i), 1+i%3, n)
		mono := rec.Mono()
		want, err := det.ScoreWith(new(Workspace), mono, 48000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := det.ScoreWith(&w, mono, 48000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("capture %d: spectral score %v on a reused workspace, %v fresh", i, got, want)
		}
		wantFP, err := fp.ScoreWith(new(Workspace), rec)
		if err != nil {
			t.Fatal(err)
		}
		_, gotFP, err := fp.CheckWith(&w, rec)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotFP) != math.Float64bits(wantFP) {
			t.Fatalf("capture %d: fingerprint score %v on a reused workspace, %v fresh", i, gotFP, wantFP)
		}
	}
	if _, err := det.ScoreWith(&w, nil, 48000); err == nil {
		t.Fatal("empty waveform scored")
	}
	if _, err := fp.ScoreWith(&w, &audio.Recording{SampleRate: 48000}); err == nil {
		t.Fatal("empty recording scored")
	}
}

// A warm Workspace scores both gates without allocating.
func TestWorkspaceAllocFree(t *testing.T) {
	det := NewDetector(3)
	det.net.Cfg.Epochs = 1
	waves, labels := synthPair(2, 7)
	if err := det.Train(waves, 16000, labels); err != nil {
		t.Fatal(err)
	}
	fp := trainedFingerprint(t, 1)
	rec := coloredCapture(300, 2, 52800)
	mono := rec.Mono()
	var w Workspace
	score := func() {
		if _, err := det.ScoreWith(&w, mono, 48000); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fp.CheckWith(&w, rec); err != nil {
			t.Fatal(err)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(5, score); allocs != 0 {
		t.Fatalf("warm liveness gates allocated %.1f times, want 0", allocs)
	}
}
