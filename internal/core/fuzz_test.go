package core_test

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
)

// Channel contents FuzzProcessWake draws from, two bits per channel.
const (
	chanSilent = iota
	chanDC
	chanClipped
	chanNoise
)

// FuzzProcessWake decides one capture in HeadTalk mode on the committed
// served enrollment, with every gate armed and no session to bypass
// orientation. The capture has 1–8 channels of up to 2 s at 48 kHz,
// each silent, DC, clipped or noise at a fuzzed level. The decision
// must not panic; every error must be typed bad input, so the serving
// engine's breaker never counts it against the engine; and a capture
// of only silent and DC channels must never accept.
func FuzzProcessWake(f *testing.F) {
	const allNoise = 0xFFFF
	for _, n := range []uint32{480, 1200, 2048, 2049, 32768, 32769, 52800} {
		f.Add(uint8(4), n, uint16(allNoise), 0.1, uint64(n))
	}
	f.Add(uint8(4), uint32(52800), uint16(0), 0.0, uint64(1))        // silent
	f.Add(uint8(4), uint32(52800), uint16(0x5555), 0.3, uint64(2))   // DC
	f.Add(uint8(4), uint32(52800), uint16(0xAAAA), 0.5, uint64(3))   // clipped
	f.Add(uint8(1), uint32(48000), uint16(allNoise), 0.1, uint64(4)) // one channel
	f.Add(uint8(8), uint32(96000), uint16(0x1B1B), 0.05, uint64(5))  // 8 mixed channels, 2 s
	f.Add(uint8(3), uint32(24000), uint16(0b110111), 0.2, uint64(6)) // one silent channel among noise
	f.Add(uint8(4), uint32(4800), uint16(allNoise), math.NaN(), uint64(7))

	sys := servedSystem(f, servedEnrollment(f), servedOptions{noSessions: true, noAdapt: true})
	f.Fuzz(func(t *testing.T, channels uint8, length uint32, kinds uint16, level float64, seed uint64) {
		nch := 1 + int(channels+7)%8
		n := int(length % (2*48000 + 1))
		rng := rand.New(rand.NewPCG(seed, 11))
		rec := audio.NewRecording(48000, nch, n)
		speechless := true
		for c, ch := range rec.Channels {
			kind := int(kinds>>(2*c)) & 3
			speechless = speechless && (kind == chanSilent || kind == chanDC)
			for i := range ch {
				switch kind {
				case chanDC:
					ch[i] = level
				case chanClipped:
					ch[i] = math.Max(-level, math.Min(level, 10*level*rng.NormFloat64()))
				case chanNoise:
					ch[i] = level * rng.NormFloat64()
				}
			}
		}
		d, err := sys.ProcessWake(context.Background(), rec)
		if err != nil {
			if _, ok := audio.AsBadInput(err); !ok {
				t.Fatalf("%d channels × %d samples: untyped error %v", nch, n, err)
			}
			return
		}
		if speechless && d.Accepted {
			t.Fatalf("%d channels × %d samples of silence and DC accepted: %+v", nch, n, d)
		}
	})
}
