package srp

import (
	"math"
	"math/rand/v2"
	"testing"
)

func synthChannels(r *rand.Rand, nch, n int) [][]float64 {
	chans := make([][]float64, nch)
	for c := range chans {
		chans[c] = make([]float64, n)
		for i := range chans[c] {
			chans[c][i] = math.Sin(2*math.Pi*float64(i)/37.0+float64(c)) + 0.1*r.NormFloat64()
		}
	}
	return chans
}

func pairsEqual(t *testing.T, want, got []PairGCC) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("pair count: want %d, got %d", len(want), len(got))
	}
	for k := range want {
		w, g := want[k], got[k]
		if w.I != g.I || w.J != g.J || w.TDoA != g.TDoA {
			t.Fatalf("pair %d: want (%d,%d) tdoa %d, got (%d,%d) tdoa %d",
				k, w.I, w.J, w.TDoA, g.I, g.J, g.TDoA)
		}
		if len(w.R) != len(g.R) {
			t.Fatalf("pair %d: lag window %d != %d", k, len(w.R), len(g.R))
		}
		for i := range w.R {
			if w.R[i] != g.R[i] {
				t.Fatalf("pair %d lag %d: want %g, got %g (not bit-identical)", k, i, w.R[i], g.R[i])
			}
		}
	}
}

// A reused workspace must reproduce a fresh one bit for bit: it is the
// same arithmetic on reused buffers, not an approximation.
func TestWorkspacePairsMatchAllocatingPath(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 0))
	chans := synthChannels(r, 4, 1000)
	for _, opt := range []PairOptions{
		{MaxLag: 27, PHAT: true},
		{MaxLag: 27, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000},
		{MaxLag: 27, PHAT: false},
	} {
		want, err := new(Workspace).AllPairs(chans, opt)
		if err != nil {
			t.Fatal(err)
		}
		var ws Workspace
		got, err := ws.AllPairs(chans, opt)
		if err != nil {
			t.Fatal(err)
		}
		pairsEqual(t, want, got)

		wantSRP := SRP(want)
		gotSRP := ws.SRP(got)
		for i := range wantSRP {
			if wantSRP[i] != gotSRP[i] {
				t.Fatalf("SRP[%d]: want %g, got %g", i, wantSRP[i], gotSRP[i])
			}
		}
	}
}

func TestWorkspaceValidation(t *testing.T) {
	var ws Workspace
	ragged := [][]float64{{1, 2, 3}, {1, 2}}
	if _, err := ws.AllPairs(ragged, PairOptions{MaxLag: 1}); err == nil {
		t.Fatal("ragged channels: want error")
	}
}

// Steady-state pair extraction through a warm workspace must not
// allocate: this is the pin the per-worker serving arenas rely on.
func TestWorkspaceAllPairsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	r := rand.New(rand.NewPCG(3, 0))
	chans := synthChannels(r, 4, 2000)
	opt := PairOptions{MaxLag: 27, PHAT: true, SampleRate: 48000, BandLo: 100, BandHi: 8000}
	var ws Workspace
	if _, err := ws.AllPairs(chans, opt); err != nil { // warm-up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		pairs, err := ws.AllPairs(chans, opt)
		if err != nil {
			t.Fatal(err)
		}
		ws.SRP(pairs)
	})
	if allocs != 0 {
		t.Fatalf("warm workspace AllPairs+SRP allocated %.1f times per run, want 0", allocs)
	}
}
