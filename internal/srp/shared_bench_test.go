package srp

// GCC benchmarks at paper scale: 4 channels, a 32768-sample analysis
// window (~0.68 s at 48 kHz — the feature extractor's focus window),
// PHAT-whitened and band-limited to 100–8000 Hz. The pre-PR numbers
// are recorded in BENCH_pr3.json (tag "pr3-baseline").

import (
	"math/rand/v2"
	"testing"
)

func benchChannels(nch, n int) [][]float64 {
	rng := rand.New(rand.NewPCG(11, 13))
	src := make([]float64, n+nch)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	out := make([][]float64, nch)
	for c := range out {
		out[c] = src[c : c+n]
	}
	return out
}

// BenchmarkGCCAllPairs is the acceptance benchmark: all 6 pairs of a
// 4-channel capture through the shared-spectra path (4 forward real
// FFTs + 6 inverse real FFTs), with the options of the two served
// callers: the orientation features (100–8000 Hz) and the stream's
// speaker signature (300–4000 Hz, MaxLag 16). Like both callers it
// runs on a warm workspace, so it times no allocation.
func BenchmarkGCCAllPairs(b *testing.B) {
	chans := benchChannels(4, 32768)
	for _, c := range []struct {
		name string
		opt  PairOptions
	}{
		{"orientation", PairOptions{MaxLag: 13, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}},
		{"signature", PairOptions{MaxLag: 16, PHAT: true, SampleRate: 48000, BandLo: 300, BandHi: 4000}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ws Workspace
			if _, err := ws.AllPairs(chans, c.opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ws.AllPairs(chans, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGCCPHATBand measures one pair on a warm workspace.
func BenchmarkGCCPHATBand(b *testing.B) {
	chans := benchChannels(2, 32768)
	opt := PairOptions{MaxLag: 13, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}
	var ws Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.AllPairs(chans, opt); err != nil {
			b.Fatal(err)
		}
	}
}
