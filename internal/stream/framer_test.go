package stream

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestHopFramerMatchesBatch: feeding a signal through the framer in
// random-sized chunks must emit exactly the hopped frames a batch scan
// produces, regardless of how the chunks split the signal.
func TestHopFramerMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const frameLen, hop = 64, 16
	x := make([]float64, 1000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var want [][]float64
	for start := 0; start+frameLen <= len(x); start += hop {
		want = append(want, append([]float64(nil), x[start:start+frameLen]...))
	}
	for trial := 0; trial < 20; trial++ {
		f := NewHopFramer(frameLen, hop)
		var got [][]float64
		rest := x
		for len(rest) > 0 {
			n := 1 + rng.IntN(200)
			if n > len(rest) {
				n = len(rest)
			}
			f.Push(rest[:n], func(frame []float64) {
				got = append(got, append([]float64(nil), frame...))
			})
			rest = rest[n:]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d frames, want %d", trial, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("trial %d frame %d sample %d: got %g, want %g", trial, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestHopFramerReset: after Reset, partial samples are discarded and
// framing restarts cleanly.
func TestHopFramerReset(t *testing.T) {
	f := NewHopFramer(8, 4)
	emitted := 0
	f.Push(make([]float64, 5), func([]float64) { emitted++ })
	f.Reset()
	f.Push(make([]float64, 7), func([]float64) { emitted++ })
	if emitted != 0 {
		t.Fatalf("emitted %d frames from partial feeds, want 0", emitted)
	}
	f.Push(make([]float64, 1), func([]float64) { emitted++ })
	if emitted != 1 {
		t.Fatalf("emitted %d frames after completing one, want 1", emitted)
	}
}

// TestHopFramerPushAllocs pins the framer's hop at zero allocations in
// steady state: a session pushes every chunk through it.
func TestHopFramerPushAllocs(t *testing.T) {
	const frameLen, hop = 256, 64
	f := NewHopFramer(frameLen, hop)
	chunk := make([]float64, hop)
	for i := range chunk {
		chunk[i] = math.Sin(float64(i) / 3)
	}
	var sink float64
	emit := func(frame []float64) { sink = frame[1] }
	// Warm until the first frame completes.
	for i := 0; i < frameLen/hop+1; i++ {
		f.Push(chunk, emit)
	}
	if avg := testing.AllocsPerRun(200, func() { f.Push(chunk, emit) }); avg != 0 {
		t.Errorf("HopFramer.Push hop allocates %.1f times per op, want 0", avg)
	}
	_ = sink
}
