package stream

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/core"
)

// fuzzChunkLens are the per-channel sample counts a fuzzed chunk picks
// from: empty, tiny, a 10 ms hop, odd lengths across the 3:1 spotter
// decimation, and the retained window's capacity and one past it.
var fuzzChunkLens = [...]int{0, 1, 2, 3, 7, 160, 480, 481, 72000, 72001}

// fuzzFrame decodes one chunk from data and returns it with the bytes
// it consumed. The first byte sets the channel count (0–6 against the
// manager's 4) and whether every channel shares the first one's
// length; each channel then takes a length byte and a fill byte:
// silence, noise at a fuzzed level, or noise carrying one NaN, +Inf or
// −Inf sample.
func fuzzFrame(data []byte) ([][]float64, int) {
	if len(data) == 0 {
		return nil, 0
	}
	head := data[0]
	used := 1
	frame := make([][]float64, int(head%7))
	for c := range frame {
		n := 0
		if used < len(data) {
			n = fuzzChunkLens[int(data[used])%len(fuzzChunkLens)]
			used++
		}
		if head&0x80 != 0 && c > 0 {
			n = len(frame[0]) // the same length as the first channel
		}
		fill := byte(0)
		if used < len(data) {
			fill = data[used]
			used++
		}
		ch := make([]float64, n)
		rng := rand.New(rand.NewPCG(uint64(fill), uint64(c)))
		level := math.Pow(10, float64(fill%8)-6) // 1e-6 … 10
		for i := range ch {
			if fill%5 != 0 {
				ch[i] = level * rng.NormFloat64()
			}
		}
		if n > 0 {
			switch fill % 11 {
			case 1:
				ch[int(fill)%n] = math.NaN()
			case 2:
				ch[int(fill)%n] = math.Inf(1)
			case 3:
				ch[int(fill)%n] = math.Inf(-1)
			}
		}
		frame[c] = ch
	}
	return frame, used
}

// FuzzPushFrames pushes adversarial chunk sequences into one session:
// ragged, empty and over-wide channels, wrong channel counts, NaN and
// Inf samples and runs of tiny chunks. No push may panic, every error
// must be the typed ErrBadFrame (one live session can meet no other
// stream error), and a well-formed push on the same session afterwards
// must still be served.
func FuzzPushFrames(f *testing.F) {
	spotter := testSpotter(f)
	f.Add([]byte{0x84, 6, 9, 6, 9, 6, 9, 6, 9})             // one well-formed 10 ms chunk
	f.Add([]byte{0x04, 6, 9, 5, 9, 6, 9, 6, 9})             // ragged
	f.Add([]byte{0x03, 6, 9, 6, 9, 6, 9})                   // a channel short
	f.Add([]byte{0x86, 6, 9, 6, 9, 6, 9, 6, 9, 6, 9, 6, 9}) // two channels over
	f.Add([]byte{0x84, 0, 9, 0, 9, 0, 9, 0, 9})             // empty channels
	f.Add([]byte{0x84, 9, 9, 9, 9, 9, 9, 9, 9})             // over-wide
	f.Add([]byte{0x84, 6, 12, 6, 12, 6, 12, 6, 12})         // NaN
	f.Add([]byte{0x84, 6, 13, 6, 13, 6, 13, 6, 13})         // +Inf
	f.Add([]byte{0x84, 1, 7, 1, 7, 1, 7, 1, 7, 0x84, 1, 7, 1, 7, 1, 7, 1, 7,
		0x84, 1, 7, 1, 7, 1, 7, 1, 7, 0x84, 2, 7, 2, 7, 2, 7, 2, 7}) // tiny chunks
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := NewManager(Config{
			Spotter:      spotter,
			JanitorEvery: -1,
			Decide: func(context.Context, *audio.Recording, SpanDurations) (core.Decision, error) {
				return core.Decision{Accepted: true, Reason: core.ReasonAccepted}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ctx := context.Background()
		for pushes := 0; len(data) > 0 && pushes < 256; pushes++ {
			frame, used := fuzzFrame(data)
			data = data[used:]
			if _, err := m.Push(ctx, "s", frame); err != nil && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("push %d (%d channels): untyped error %v", pushes, len(frame), err)
			}
		}
		well := make([][]float64, 4)
		rng := rand.New(rand.NewPCG(1, 2))
		for c := range well {
			well[c] = make([]float64, 480)
			for i := range well[c] {
				well[c][i] = 0.1 * rng.NormFloat64()
			}
		}
		res, err := m.Push(ctx, "s", well)
		if err != nil || res.Status == StatusInvalid || res.Status == StatusEvicted {
			t.Fatalf("well-formed push after the fuzzed ones: status %v, err %v", res.Status, err)
		}
	})
}
