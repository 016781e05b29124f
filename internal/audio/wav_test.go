package audio

// Regression tests for the WAV decode hardening: the malformed-WAV
// corpus (zero/absurd rates, hostile chunk sizes, truncation, odd-size
// padding), allocation bounding, decode clamping, and the
// encode→decode→encode idempotence property.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// wavChunk is one RIFF chunk for the corpus builder. DeclaredSize
// overrides the header size field when >= 0 (to lie about the body).
type wavChunk struct {
	id           string
	body         []byte
	declaredSize int64
}

// buildWAV assembles a raw RIFF/WAVE stream from chunks, honoring the
// word-alignment pad byte like a real encoder.
func buildWAV(chunks ...wavChunk) []byte {
	var b bytes.Buffer
	b.WriteString("RIFF")
	binary.Write(&b, binary.LittleEndian, uint32(0)) // RIFF size: unchecked
	b.WriteString("WAVE")
	for _, c := range chunks {
		b.WriteString(c.id)
		size := int64(len(c.body))
		if c.declaredSize >= 0 {
			size = c.declaredSize
		}
		binary.Write(&b, binary.LittleEndian, uint32(size))
		b.Write(c.body)
		if len(c.body)%2 == 1 && c.declaredSize < 0 {
			b.WriteByte(0)
		}
	}
	return b.Bytes()
}

// fmtBody builds a 16-byte PCM fmt chunk body.
func fmtBody(format, channels uint16, rate uint32, bits uint16) []byte {
	body := make([]byte, 16)
	binary.LittleEndian.PutUint16(body[0:2], format)
	binary.LittleEndian.PutUint16(body[2:4], channels)
	binary.LittleEndian.PutUint32(body[4:8], rate)
	binary.LittleEndian.PutUint32(body[8:12], rate*uint32(channels)*2)
	binary.LittleEndian.PutUint16(body[12:14], channels*2)
	binary.LittleEndian.PutUint16(body[14:16], bits)
	return body
}

func pcm(samples ...int16) []byte {
	out := make([]byte, 2*len(samples))
	for i, s := range samples {
		binary.LittleEndian.PutUint16(out[2*i:], uint16(s))
	}
	return out
}

func TestReadWAVMalformedCorpus(t *testing.T) {
	goodFmt := wavChunk{id: "fmt ", body: fmtBody(1, 1, 48000, 16), declaredSize: -1}
	goodData := wavChunk{id: "data", body: pcm(0, 100, -100, 32000), declaredSize: -1}

	cases := []struct {
		name   string
		stream []byte
		reason WAVReason
	}{
		{"zero sample rate",
			buildWAV(wavChunk{"fmt ", fmtBody(1, 1, 0, 16), -1}, goodData), WAVBadRate},
		{"absurd sample rate",
			buildWAV(wavChunk{"fmt ", fmtBody(1, 1, 96_000_000, 16), -1}, goodData), WAVBadRate},
		{"zero channels",
			buildWAV(wavChunk{"fmt ", fmtBody(1, 0, 48000, 16), -1}, goodData), WAVBadChannels},
		{"absurd channels",
			buildWAV(wavChunk{"fmt ", fmtBody(1, 1000, 48000, 16), -1}, goodData), WAVBadChannels},
		{"huge declared data chunk",
			buildWAV(goodFmt, wavChunk{"data", pcm(1, 2), 0xFFFF_FFF0}), WAVTooLarge},
		{"huge declared unknown chunk",
			buildWAV(goodFmt, wavChunk{"LIST", nil, 3 << 30}, goodData), WAVTooLarge},
		{"truncated data",
			buildWAV(goodFmt, wavChunk{"data", pcm(1, 2), 1 << 10}), WAVTruncated},
		{"truncated RIFF header",
			[]byte("RIFFxx"), WAVTruncated},
		{"not RIFF at all",
			[]byte("this is sixteen."), WAVNotRIFF},
		{"missing data chunk",
			buildWAV(goodFmt), WAVMissingChunk},
		{"missing fmt chunk",
			buildWAV(goodData), WAVMissingChunk},
		{"non-PCM format",
			buildWAV(wavChunk{"fmt ", fmtBody(3, 1, 48000, 16), -1}, goodData), WAVBadFormat},
		{"24-bit depth",
			buildWAV(wavChunk{"fmt ", fmtBody(1, 1, 48000, 24), -1}, goodData), WAVBadFormat},
		{"tiny fmt chunk",
			buildWAV(wavChunk{"fmt ", []byte{1, 0}, -1}, goodData), WAVBadFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadWAV(bytes.NewReader(tc.stream))
			if err == nil {
				t.Fatal("malformed stream decoded without error")
			}
			mw, ok := AsMalformedWAV(err)
			if !ok {
				t.Fatalf("error %v is not a typed *ErrMalformedWAV", err)
			}
			if mw.Reason != tc.reason {
				t.Fatalf("reason = %q, want %q (%v)", mw.Reason, tc.reason, err)
			}
		})
	}
}

// TestReadWAVOddChunkPadding pins the positive case around the
// word-alignment rule: an odd-sized unknown chunk plus its pad byte
// must not desynchronize the parse.
func TestReadWAVOddChunkPadding(t *testing.T) {
	stream := buildWAV(
		wavChunk{"LIST", []byte{1, 2, 3}, -1}, // odd size → padded
		wavChunk{"fmt ", fmtBody(1, 2, 48000, 16), -1},
		wavChunk{"data", pcm(100, -100, 200, -200), -1},
	)
	rec, err := ReadWAV(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if rec.SampleRate != 48000 || len(rec.Channels) != 2 || rec.Len() != 2 {
		t.Fatalf("decoded shape: %g Hz, %d ch, %d frames", rec.SampleRate, len(rec.Channels), rec.Len())
	}
}

// TestReadWAVHugeChunkDoesNotAllocate pins the allocation bound: a
// 30-byte stream whose data chunk claims 1 GiB must fail without the
// decoder ever allocating anything near the claimed size.
func TestReadWAVHugeChunkDoesNotAllocate(t *testing.T) {
	stream := buildWAV(
		wavChunk{"fmt ", fmtBody(1, 1, 48000, 16), -1},
		wavChunk{"data", pcm(1, 2), 1 << 30},
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReadWAV(bytes.NewReader(stream)); err == nil {
		t.Fatal("hostile chunk size decoded without error")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoder allocated %d bytes on a 1 GiB-claiming header", grew)
	}
	// The cap is configurable: the same claimed size passes a larger
	// budget check (and then fails as truncated, since the bytes are
	// absent).
	if _, err := ReadWAVLimit(bytes.NewReader(stream), 2<<30); err == nil {
		t.Fatal("truncated stream decoded")
	} else if mw, _ := AsMalformedWAV(err); mw == nil || mw.Reason != WAVTruncated {
		t.Fatalf("raised-budget error = %v, want truncated", err)
	}
}

// TestReadWAVFullScaleNegativeClamped: the raw int16 -32768 divided by
// 32767 is ≈ -1.00003, outside the documented range; decode must clamp
// it to exactly -1.
func TestReadWAVFullScaleNegativeClamped(t *testing.T) {
	stream := buildWAV(
		wavChunk{"fmt ", fmtBody(1, 1, 8000, 16), -1},
		wavChunk{"data", pcm(-32768, 32767, -32767), -1},
	)
	rec, err := ReadWAV(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Channels[0]
	if got[0] != -1 {
		t.Fatalf("decoded -32768 to %v, want exactly -1", got[0])
	}
	if got[1] != 1 || got[2] != -1.0 && math.Abs(got[2]+1) > 1e-9 {
		t.Fatalf("full-scale samples decoded to %v", got)
	}
	for _, v := range got {
		if v < -1 || v > 1 {
			t.Fatalf("decoded sample %v outside [-1, 1]", v)
		}
	}
}

// TestWAVEncodeDecodeEncodeIdempotent is the round-trip property test:
// for random recordings (including rail-pinned samples), the byte
// stream stabilizes after one encode — enc(dec(enc(x))) == enc(x) —
// and every decoded sample stays inside [-1, 1].
func TestWAVEncodeDecodeEncodeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20; trial++ {
		channels := 1 + rng.IntN(4)
		frames := 1 + rng.IntN(500)
		rec := NewRecording(48000, channels, frames)
		for c := range rec.Channels {
			for i := range rec.Channels[c] {
				switch rng.IntN(10) {
				case 0: // rail and beyond-rail values exercise the clip path
					rec.Channels[c][i] = -1.5 + 3*float64(rng.IntN(2))
				default:
					rec.Channels[c][i] = rng.Float64()*2.2 - 1.1
				}
			}
		}
		var first bytes.Buffer
		if err := WriteWAV(&first, rec); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadWAV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for c := range decoded.Channels {
			for i, v := range decoded.Channels[c] {
				if v < -1 || v > 1 {
					t.Fatalf("trial %d: decoded sample [%d][%d] = %v outside [-1, 1]", trial, c, i, v)
				}
			}
		}
		var second bytes.Buffer
		if err := WriteWAV(&second, decoded); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: encode→decode→encode not idempotent (%d ch, %d frames)", trial, channels, frames)
		}
	}
}

// FuzzReadWAVLimit covers the WAV trust boundary that wake and session
// requests cross: for any byte stream, ReadWAVLimit must not panic and
// must return either a typed *ErrMalformedWAV or a recording whose
// channels are equally long and hold finite samples in [-1, 1].
func FuzzReadWAVLimit(f *testing.F) {
	rec := NewRecording(48000, 2, 4)
	copy(rec.Channels[0], []float64{0, 0.5, -1, 1})
	copy(rec.Channels[1], []float64{-0.25, 0.75, 1e-3, -0.5})
	var good bytes.Buffer
	if err := WriteWAV(&good, rec); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(buildWAV(wavChunk{id: "fmt ", body: fmtBody(1, 1, 48000, 16), declaredSize: -1},
		wavChunk{id: "data", body: pcm(-32768, 32767, 0), declaredSize: -1}))
	f.Add(buildWAV(wavChunk{id: "fmt ", body: fmtBody(1, 3, 48000, 16), declaredSize: -1},
		wavChunk{id: "LIST", body: []byte{1, 2, 3}, declaredSize: -1},
		wavChunk{id: "data", body: pcm(1, 2, 3, 4, 5), declaredSize: -1}))
	f.Add(buildWAV(wavChunk{id: "fmt ", body: fmtBody(1, 1, 0, 16), declaredSize: -1}))
	f.Add(buildWAV(wavChunk{id: "data", body: nil, declaredSize: 1 << 30}))
	f.Fuzz(func(t *testing.T, b []byte) {
		// A small budget keeps hostile size fields from driving large
		// allocations while the fuzzer runs.
		rec, err := ReadWAVLimit(bytes.NewReader(b), 1<<16)
		if err != nil {
			if _, ok := AsMalformedWAV(err); !ok {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if rec != nil {
				t.Fatalf("recording returned alongside error %v", err)
			}
			return
		}
		if rec == nil || len(rec.Channels) == 0 || len(rec.Channels) > MaxWAVChannels {
			t.Fatalf("recording %+v without a valid channel count", rec)
		}
		if rec.SampleRate <= 0 || rec.SampleRate > MaxWAVSampleRate {
			t.Fatalf("sample rate %v", rec.SampleRate)
		}
		for c, ch := range rec.Channels {
			if len(ch) != len(rec.Channels[0]) {
				t.Fatalf("channel %d has %d samples, channel 0 has %d", c, len(ch), len(rec.Channels[0]))
			}
			for i, x := range ch {
				if math.IsNaN(x) || x < -1 || x > 1 {
					t.Fatalf("channel %d sample %d = %v outside [-1, 1]", c, i, x)
				}
			}
		}
	})
}
