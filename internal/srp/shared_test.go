package srp

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func randChannels(nch, n int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	out := make([][]float64, nch)
	for c := range out {
		out[c] = make([]float64, n)
		for i := range out[c] {
			out[c][i] = rng.NormFloat64()
		}
	}
	return out
}

// TestAllPairsMatchesPairwiseGCC pins the shared-spectra rewrite to the
// per-pair reference: AllPairs computes each channel's whitened
// spectrum once, which must be numerically indistinguishable (1e-9)
// from whitening each pair's cross-spectrum separately.
func TestAllPairsMatchesPairwiseGCC(t *testing.T) {
	for _, n := range []int{1024, 1000} { // power-of-two and ragged input lengths
		channels := randChannels(4, n, 51)
		opt := PairOptions{MaxLag: 13, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}
		pairs, err := new(Workspace).AllPairs(channels, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != 6 {
			t.Fatalf("n=%d: %d pairs, want 6", n, len(pairs))
		}
		for _, p := range pairs {
			want, err := gccPHATBand(channels[p.I], channels[p.J], opt.MaxLag, opt.SampleRate, opt.BandLo, opt.BandHi)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if d := math.Abs(p.R[k] - want[k]); d > 1e-9 {
					t.Fatalf("n=%d pair (%d,%d) lag %d: shared %g vs pairwise %g (|Δ|=%g)",
						n, p.I, p.J, k-opt.MaxLag, p.R[k], want[k], d)
				}
			}
		}
	}
}

// TestAllPairsPHATlessMatchesPairwise does the same for the unwhitened
// ablation path.
func TestAllPairsPHATlessMatchesPairwise(t *testing.T) {
	channels := randChannels(3, 2048, 53)
	opt := PairOptions{MaxLag: 9}
	pairs, err := new(Workspace).AllPairs(channels, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		want, err := crossCorrPHATless(channels[p.I], channels[p.J], opt.MaxLag)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if d := math.Abs(p.R[k] - want[k]); d > 1e-9 {
				t.Fatalf("pair (%d,%d) lag %d: shared %g vs pairwise %g", p.I, p.J, k-opt.MaxLag, p.R[k], want[k])
			}
		}
	}
}

// TestAllPairsErrorCases preserves the pre-rewrite error contract.
func TestAllPairsErrorCases(t *testing.T) {
	if _, err := new(Workspace).AllPairs([][]float64{{1, 2}, {1}}, PairOptions{MaxLag: 3}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := new(Workspace).AllPairs([][]float64{{}, {}}, PairOptions{MaxLag: 3}); err == nil {
		t.Error("expected empty-channel error")
	}
	if _, err := new(Workspace).AllPairs([][]float64{{1, 2}, {3, 4}}, PairOptions{MaxLag: -1}); err == nil {
		t.Error("expected negative-lag error")
	}
	// A 2-sample channel pads to a 4-point correlation: lags ±5 do not
	// exist in it.
	if _, err := new(Workspace).AllPairs([][]float64{{1, 2}, {3, 4}}, PairOptions{MaxLag: 5, PHAT: true}); !errors.Is(err, ErrLagWindow) {
		t.Errorf("MaxLag past the correlation: err=%v, want ErrLagWindow", err)
	}
	if _, err := gccPHATBand([]float64{1, 2}, []float64{3, 4}, 4, 0, 0, 0); !errors.Is(err, ErrLagWindow) {
		t.Errorf("gccPHATBand MaxLag past the correlation: err=%v, want ErrLagWindow", err)
	}
	if _, err := crossCorrPHATless([]float64{1, 2}, []float64{3, 4}, 4); !errors.Is(err, ErrLagWindow) {
		t.Errorf("crossCorrPHATless MaxLag past the correlation: err=%v, want ErrLagWindow", err)
	}
	// The widest window that fits, m-1, still works, and matches the
	// pairwise path.
	pairs, err := new(Workspace).AllPairs([][]float64{{1, 2}, {3, 4}}, PairOptions{MaxLag: 3, PHAT: true})
	if err != nil {
		t.Fatalf("MaxLag 3 on a 4-point correlation: %v", err)
	}
	want, err := gccPHATBand([]float64{1, 2}, []float64{3, 4}, 3, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if d := math.Abs(pairs[0].R[k] - want[k]); d > 1e-12 {
			t.Errorf("MaxLag 3 lag %d: shared %g vs pairwise %g", k-3, pairs[0].R[k], want[k])
		}
	}
	// A band wholly above Nyquist keeps no bin: every pair correlates
	// to zero, with no error and no panic.
	pairs, err = new(Workspace).AllPairs(randChannels(3, 1000, 59), PairOptions{MaxLag: 3, PHAT: true, SampleRate: 48000, BandLo: 30000, BandHi: 40000})
	if err != nil || len(pairs) != 3 {
		t.Fatalf("band above Nyquist: %d pairs, err=%v, want 3 and nil", len(pairs), err)
	}
	for _, p := range pairs {
		for k, v := range p.R {
			if v != 0 {
				t.Errorf("band above Nyquist: pair (%d,%d) lag %d = %g, want 0", p.I, p.J, k-3, v)
			}
		}
	}
	// Fewer than two channels: no pairs, no error (unchanged behavior).
	if pairs, err := new(Workspace).AllPairs([][]float64{{1, 2}}, PairOptions{MaxLag: 3}); err != nil || len(pairs) != 0 {
		t.Errorf("single channel: pairs=%v err=%v, want empty and nil", pairs, err)
	}
}

// TestAllocsAllPairs gates the shared-spectra pair sweep on a fresh
// workspace: per-channel spectra plus per-pair lag windows, far below
// the old 2-FFTs-per-pair regime.
func TestAllocsAllPairs(t *testing.T) {
	channels := randChannels(4, 32768, 57)
	opt := PairOptions{MaxLag: 13, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}
	if _, err := new(Workspace).AllPairs(channels, opt); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := new(Workspace).AllPairs(channels, opt); err != nil {
			t.Fatal(err)
		}
	})
	// 4 shared spectra (1 flat backing + headers) + scratch + 6 lag
	// windows + the pair slice: comfortably under 20; the old path sat
	// at 46 with 36 of them full-size FFT buffers.
	if avg > 20 {
		t.Errorf("AllPairs allocates %.1f times per op, want <= 20", avg)
	}
}
