package stream

import (
	"math/rand/v2"
	"testing"
)

// TestRingWrapAround is a property test: after any sequence of
// random-sized pushes, Snapshot must equal the last min(total, cap)
// samples of the concatenated feed, oldest first, on every channel.
func TestRingWrapAround(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		channels := 1 + rng.IntN(4)
		capacity := 16 + rng.IntN(500)
		r := NewRing(channels, capacity)
		// Reference: the full concatenated feed per channel.
		ref := make([][]float64, channels)
		pushes := 1 + rng.IntN(20)
		for p := 0; p < pushes; p++ {
			// Occasionally push a chunk larger than the ring itself.
			n := 1 + rng.IntN(capacity+capacity/2)
			chunk := make([][]float64, channels)
			for c := range chunk {
				chunk[c] = make([]float64, n)
				for i := range chunk[c] {
					chunk[c][i] = rng.Float64()
				}
				ref[c] = append(ref[c], chunk[c]...)
			}
			r.Push(chunk)
		}
		total := len(ref[0])
		want := total
		if want > capacity {
			want = capacity
		}
		if r.filled != want {
			t.Fatalf("trial %d: Len=%d, want %d", trial, r.filled, want)
		}
		snap := r.Snapshot(48000)
		if snap.SampleRate != 48000 || len(snap.Channels) != channels {
			t.Fatalf("trial %d: snapshot shape %gHz/%dch", trial, snap.SampleRate, len(snap.Channels))
		}
		for c := 0; c < channels; c++ {
			tail := ref[c][total-want:]
			if len(snap.Channels[c]) != want {
				t.Fatalf("trial %d ch %d: snapshot len %d, want %d", trial, c, len(snap.Channels[c]), want)
			}
			for i, v := range snap.Channels[c] {
				if v != tail[i] {
					t.Fatalf("trial %d ch %d sample %d: got %g, want %g", trial, c, i, v, tail[i])
				}
			}
		}
	}
}

// TestRingRejectsBadGeometry covers the constructor panics.
func TestRingRejectsBadGeometry(t *testing.T) {
	for _, tc := range []struct{ ch, capn int }{{0, 10}, {1, 0}, {-1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d, %d) did not panic", tc.ch, tc.capn)
				}
			}()
			NewRing(tc.ch, tc.capn)
		}()
	}
}

// TestRingEmptyPushAndSnapshot: zero-length chunks are no-ops and an
// empty ring snapshots to an empty recording.
func TestRingEmptyPushAndSnapshot(t *testing.T) {
	r := NewRing(2, 8)
	r.Push([][]float64{{}, {}})
	if r.filled != 0 {
		t.Fatalf("empty push changed state: Len=%d", r.filled)
	}
	snap := r.Snapshot(16000)
	if snap.Len() != 0 {
		t.Fatalf("empty snapshot has %d samples", snap.Len())
	}
}

// TestRingPushAllocs pins the push hot path at zero allocations.
func TestRingPushAllocs(t *testing.T) {
	r := NewRing(4, 4800)
	chunk := make([][]float64, 4)
	for c := range chunk {
		chunk[c] = make([]float64, 480)
		for i := range chunk[c] {
			chunk[c][i] = float64(i)
		}
	}
	if avg := testing.AllocsPerRun(200, func() { r.Push(chunk) }); avg != 0 {
		t.Errorf("Ring.Push allocates %.1f times per op, want 0", avg)
	}
}
