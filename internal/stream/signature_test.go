package stream

import (
	"math/rand/v2"
	"slices"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/speech"
	"headtalk/internal/srp"
)

const sigMaxLag = 16

// sigOpts are the pair options Signature correlates with.
var sigOpts = srp.PairOptions{MaxLag: sigMaxLag, PHAT: true, SampleRate: 48000, BandLo: 300, BandHi: 4000}

// placeSource adds src into every channel of dst starting at offset,
// channel c delayed by delays[c] samples (integer delays: the
// inter-channel lags are exact). Samples past the end are dropped.
func placeSource(dst [][]float64, src []float64, offset int, delays []int) {
	for c, ch := range dst {
		for i, v := range src {
			if j := offset + delays[c] + i; j < len(ch) {
				ch[j] += v
			}
		}
	}
}

func tdoas(t *testing.T, channels [][]float64) []int {
	t.Helper()
	var ws srp.Workspace
	pairs, err := ws.AllPairs(channels, sigOpts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(pairs))
	for i, p := range pairs {
		out[i] = p.TDoA
	}
	return out
}

// noisyWordWindow builds a 1.5 s, 4-channel candidate window the way a
// full ring holds one when the spotter fires: the wake word (0.77 s
// for this voice) at the end, and before it broadband noise from
// another direction (a TV or fan) filling the rest of the ring. It
// also returns the word's and the noise's channels on their own.
func noisyWordWindow(t *testing.T) (window *audio.Recording, word, noise [][]float64) {
	t.Helper()
	const n = 72000 // 1.5 s at 48 kHz, the manager's default retention
	noiseDelays := []int{0, 1, 3, 4}
	wordDelays := []int{7, 4, 0, 3}
	rng := rand.New(rand.NewPCG(21, 0x5197))

	utter := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 48000, rng).Samples
	leadIn := n - len(utter) - slices.Max(wordDelays)
	lead := make([]float64, leadIn)
	for i := range lead {
		lead[i] = 0.05 * rng.NormFloat64()
	}

	window = audio.NewRecording(48000, 4, n)
	placeSource(window.Channels, lead, 0, noiseDelays)
	placeSource(window.Channels, utter, leadIn, wordDelays)

	word = make([][]float64, 4)
	noise = make([][]float64, 4)
	for c := range word {
		word[c] = make([]float64, n-leadIn)
		noise[c] = make([]float64, leadIn)
	}
	placeSource(word, utter, 0, wordDelays)
	placeSource(noise, lead, 0, noiseDelays)
	return window, word, noise
}

// TestSignatureFollowsTheWord: a candidate window whose ring still holds
// a long noise lead-in from another direction must be signed with the
// talker's lags, not the noise source's. Correlating the whole window
// lets the PHAT-whitened broadband noise outvote the word.
func TestSignatureFollowsTheWord(t *testing.T) {
	window, word, noise := noisyWordWindow(t)
	want := tdoas(t, word)
	if noiseSig := tdoas(t, noise); slices.Equal(want, noiseSig) {
		t.Fatalf("word and noise share lag vector %v; the scene cannot tell them apart", want)
	}
	got, err := Signature(window, sigMaxLag)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("signature %v, want the word's lags %v (noise lags %v, whole window %v)",
			got, want, tdoas(t, noise), tdoas(t, window.Channels))
	}
}

// TestSignatureMatchesAllPairsOnShortWindows: a window no longer than
// the focus window is correlated whole, so the signature is exactly
// the srp.Workspace.AllPairs TDoA vector.
func TestSignatureMatchesAllPairsOnShortWindows(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	utter := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 48000, rng).Samples
	for _, tc := range []struct {
		n      int
		delays []int
	}{
		{4000, []int{0, 2, 5, 1}},
		{20000, []int{9, 0, 4, 12}},
		{32768, []int{3, 3, 0, 6}},
	} {
		rec := audio.NewRecording(48000, 4, tc.n)
		placeSource(rec.Channels, utter, 0, tc.delays)
		for c, ch := range rec.Channels {
			for i := range ch {
				ch[i] += 0.01 * rng.NormFloat64() * float64(c+1)
			}
		}
		got, err := Signature(rec, sigMaxLag)
		if err != nil {
			t.Fatal(err)
		}
		if want := tdoas(t, rec.Channels); !slices.Equal(got, want) {
			t.Fatalf("n=%d: signature %v, AllPairs %v", tc.n, got, want)
		}
	}
}

// TestSignatureAllocs pins a warm signature at one allocation per call:
// the returned lag vector. The focus search, cropped headers and GCC
// scratch come from the pooled workspace.
func TestSignatureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	window, _, _ := noisyWordWindow(t)
	if _, err := Signature(window, sigMaxLag); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Signature(window, sigMaxLag); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1 {
		t.Errorf("Signature allocates %.1f times per call, want <= 1", avg)
	}
}
