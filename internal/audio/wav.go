package audio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// WAV I/O supports 16-bit PCM, the format the prototype devices record
// in. Multi-channel recordings are interleaved per the RIFF spec.
//
// ReadWAV is attacker-facing (the daemon decodes WAV paths named by
// network peers), so it must never panic, never allocate more than a
// bounded amount from header-declared sizes, and never emit samples
// outside [-1, 1]. Failures are typed (*ErrMalformedWAV) so callers
// can classify them without string matching.

const (
	riffMagic = "RIFF"
	waveMagic = "WAVE"
	fmtChunk  = "fmt "
	dataChunk = "data"
)

// Decode-hardening limits.
const (
	// DefaultMaxWAVBytes caps the total chunk payload ReadWAV will
	// consume (and in particular allocate) from one stream. A 12-byte
	// header claiming a 4 GiB data chunk must not make the daemon
	// allocate 4 GiB before the read fails; use ReadWAVLimit to raise
	// or lower the cap.
	DefaultMaxWAVBytes = 256 << 20
	// MaxWAVChannels bounds the fmt chunk's channel count. The largest
	// prototype array has 8 microphones; anything past this is a
	// corrupt or hostile header, not a recording.
	MaxWAVChannels = 64
	// MaxWAVSampleRate bounds the fmt chunk's sample rate (1.048 MHz —
	// an order of magnitude past any audio ADC this system meets).
	MaxWAVSampleRate = 1 << 20
)

// WAVReason classifies a malformed-WAV failure.
type WAVReason string

// Malformed-WAV reasons.
const (
	WAVNotRIFF      WAVReason = "not_riff"
	WAVTruncated    WAVReason = "truncated"
	WAVTooLarge     WAVReason = "too_large"
	WAVBadFormat    WAVReason = "bad_format"
	WAVBadRate      WAVReason = "bad_sample_rate"
	WAVBadChannels  WAVReason = "bad_channels"
	WAVMissingChunk WAVReason = "missing_chunk"
)

// ErrMalformedWAV is the typed error ReadWAV returns for any stream it
// rejects. Callers match it with errors.As and
// branch on Reason.
type ErrMalformedWAV struct {
	Reason WAVReason
	Detail string
}

// Error implements error.
func (e *ErrMalformedWAV) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("audio: malformed WAV (%s)", e.Reason)
	}
	return fmt.Sprintf("audio: malformed WAV (%s): %s", e.Reason, e.Detail)
}

// WriteWAV encodes rec as 16-bit PCM WAV. Samples are clipped to
// [-1, 1].
func WriteWAV(w io.Writer, rec *Recording) error {
	if len(rec.Channels) == 0 {
		return fmt.Errorf("audio: cannot write WAV with zero channels")
	}
	channels := len(rec.Channels)
	n := rec.Len()
	for i, ch := range rec.Channels {
		if len(ch) != n {
			return fmt.Errorf("audio: channel %d length %d != %d", i, len(ch), n)
		}
	}
	sampleRate := uint32(math.Round(rec.SampleRate))
	byteRate := sampleRate * uint32(channels) * 2
	blockAlign := uint16(channels * 2)
	dataSize := uint32(n * channels * 2)

	var header [44]byte
	copy(header[0:4], riffMagic)
	binary.LittleEndian.PutUint32(header[4:8], 36+dataSize)
	copy(header[8:12], waveMagic)
	copy(header[12:16], fmtChunk)
	binary.LittleEndian.PutUint32(header[16:20], 16)
	binary.LittleEndian.PutUint16(header[20:22], 1) // PCM
	binary.LittleEndian.PutUint16(header[22:24], uint16(channels))
	binary.LittleEndian.PutUint32(header[24:28], sampleRate)
	binary.LittleEndian.PutUint32(header[28:32], byteRate)
	binary.LittleEndian.PutUint16(header[32:34], blockAlign)
	binary.LittleEndian.PutUint16(header[34:36], 16)
	copy(header[36:40], dataChunk)
	binary.LittleEndian.PutUint32(header[40:44], dataSize)
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("audio: writing WAV header: %w", err)
	}

	buf := make([]byte, n*channels*2)
	for i := 0; i < n; i++ {
		for c := 0; c < channels; c++ {
			v := rec.Channels[c][i]
			if v > 1 {
				v = 1
			}
			if v < -1 {
				v = -1
			}
			s := int16(math.Round(v * 32767))
			binary.LittleEndian.PutUint16(buf[(i*channels+c)*2:], uint16(s))
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("audio: writing WAV data: %w", err)
	}
	return nil
}

// ReadWAV decodes a 16-bit PCM WAV stream into a Recording with the
// default DefaultMaxWAVBytes payload cap.
func ReadWAV(r io.Reader) (*Recording, error) {
	return ReadWAVLimit(r, DefaultMaxWAVBytes)
}

// ReadWAVLimit is ReadWAV with an explicit cap on the total chunk
// payload (per-chunk and cumulative) the decoder will consume. The cap
// is enforced against the header-declared sizes *before* any
// allocation, so a tiny stream claiming a huge chunk fails with
// WAVTooLarge instead of allocating. maxBytes <= 0 selects
// DefaultMaxWAVBytes. Rejections are typed *ErrMalformedWAV.
func ReadWAVLimit(r io.Reader, maxBytes int64) (*Recording, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxWAVBytes
	}
	var header [12]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, &ErrMalformedWAV{Reason: WAVTruncated, Detail: fmt.Sprintf("reading RIFF header: %v", err)}
	}
	if string(header[0:4]) != riffMagic || string(header[8:12]) != waveMagic {
		return nil, &ErrMalformedWAV{Reason: WAVNotRIFF, Detail: "not a RIFF/WAVE stream"}
	}
	var (
		haveFmt    bool
		channels   uint16
		sampleRate uint32
		bits       uint16
		data       []byte
		budget     = maxBytes
	)
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			return nil, &ErrMalformedWAV{Reason: WAVTruncated, Detail: fmt.Sprintf("reading chunk header: %v", err)}
		}
		id := string(chunk[0:4])
		size := int64(binary.LittleEndian.Uint32(chunk[4:8]))
		// Enforce the cap on the declared size before touching memory:
		// the size field is attacker-controlled and must never drive an
		// allocation larger than the budget.
		if size > budget {
			return nil, &ErrMalformedWAV{
				Reason: WAVTooLarge,
				Detail: fmt.Sprintf("%q chunk claims %d bytes with %d of the %d-byte budget left", id, size, budget, maxBytes),
			}
		}
		budget -= size
		switch id {
		case fmtChunk:
			if size < 16 {
				return nil, &ErrMalformedWAV{Reason: WAVBadFormat, Detail: fmt.Sprintf("fmt chunk too small (%d bytes)", size)}
			}
			body := make([]byte, size)
			if _, err := io.ReadFull(r, body); err != nil {
				return nil, &ErrMalformedWAV{Reason: WAVTruncated, Detail: fmt.Sprintf("reading fmt chunk: %v", err)}
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			if format != 1 {
				return nil, &ErrMalformedWAV{Reason: WAVBadFormat, Detail: fmt.Sprintf("unsupported WAV format %d (want PCM)", format)}
			}
			channels = binary.LittleEndian.Uint16(body[2:4])
			sampleRate = binary.LittleEndian.Uint32(body[4:8])
			bits = binary.LittleEndian.Uint16(body[14:16])
			// A zero or absurd rate would produce a Recording whose
			// downstream framing math divides by zero or explodes;
			// reject at the source with a typed reason.
			if sampleRate == 0 || sampleRate > MaxWAVSampleRate {
				return nil, &ErrMalformedWAV{Reason: WAVBadRate, Detail: fmt.Sprintf("sample rate %d Hz outside (0, %d]", sampleRate, MaxWAVSampleRate)}
			}
			if channels == 0 || channels > MaxWAVChannels {
				return nil, &ErrMalformedWAV{Reason: WAVBadChannels, Detail: fmt.Sprintf("channel count %d outside [1, %d]", channels, MaxWAVChannels)}
			}
			haveFmt = true
		case dataChunk:
			data = make([]byte, size)
			if _, err := io.ReadFull(r, data); err != nil {
				return nil, &ErrMalformedWAV{Reason: WAVTruncated, Detail: fmt.Sprintf("reading data chunk: %v", err)}
			}
		default:
			// Unknown chunks (LIST, fact, ...) are streamed past, never
			// buffered.
			if _, err := io.CopyN(io.Discard, r, size); err != nil {
				return nil, &ErrMalformedWAV{Reason: WAVTruncated, Detail: fmt.Sprintf("skipping %q chunk: %v", id, err)}
			}
		}
		if size%2 == 1 {
			// Chunks are word-aligned; skip the pad byte.
			var pad [1]byte
			if _, err := io.ReadFull(r, pad[:]); err != nil && err != io.EOF {
				return nil, &ErrMalformedWAV{Reason: WAVTruncated, Detail: fmt.Sprintf("reading chunk padding: %v", err)}
			}
		}
	}
	if !haveFmt || data == nil {
		return nil, &ErrMalformedWAV{Reason: WAVMissingChunk, Detail: "missing fmt or data chunk"}
	}
	if bits != 16 {
		return nil, &ErrMalformedWAV{Reason: WAVBadFormat, Detail: fmt.Sprintf("unsupported bit depth %d (want 16)", bits)}
	}
	frames := len(data) / (int(channels) * 2)
	rec := NewRecording(float64(sampleRate), int(channels), frames)
	table := pcm16Table()
	stride := 2 * int(channels)
	for c, ch := range rec.Channels {
		for i := range ch {
			ch[i] = table[binary.LittleEndian.Uint16(data[i*stride+2*c:])]
		}
	}
	return rec, nil
}

// pcm16Table maps every 16-bit PCM word to its decoded sample, built
// once. Decode uses the same 32767 scale the encoder uses, clamped so
// the full-scale negative sample (-32768) lands exactly on -1 instead
// of ≈ -1.00003 — keeping every decoded sample inside the documented
// [-1, 1] range and the encode→decode round trip idempotent.
var pcm16Table = sync.OnceValue(func() *[1 << 16]float64 {
	var t [1 << 16]float64
	for u := range t {
		v := float64(int16(u)) / 32767
		if v < -1 {
			v = -1
		} else if v > 1 {
			v = 1
		}
		t[u] = v
	}
	return &t
})
