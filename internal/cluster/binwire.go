package cluster

// The binary peer frame: the one encoding of every peer request.
// Marshaling multichannel float64 audio through JSON costs a decimal
// render and re-parse per sample and dominates the forwarded-decision
// round trip; the binary frame moves the bulk samples as raw IEEE-754
// bits and keeps only the small metadata header in JSON, so the wire
// stays extensible where it is cheap and flat where it is hot.
//
// Frame layout (all integers and float bits little-endian):
//
//	0xB1 | u32 headerLen | header JSON | u32 nch | nch × (u32 n | n × f64)
//
// The header is the peerRequest's JSON form, which never includes
// Channels/Frames; the payload attaches to the field the op implies.
// The sample-bearing ops (decide, frames) carry their channels; every
// other op carries zero channels, and a payload on one is refused.
// Responses are always NDJSON lines — they carry no sample data. A
// request that does not open with 0xB1 is answered bad_input and its
// connection dropped, like a malformed frame.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// binaryMagic opens every peer request frame. It can never begin a
// JSON document, which starts with '{' (0x7B) or whitespace.
const binaryMagic = 0xB1

// Binary frame bounds; maxPeerLine bounds the sample payload.
const (
	maxBinaryHeader   = 1 << 20 // metadata JSON, sans samples
	maxBinaryChannels = 4096
)

// sampleChunk is how many samples readBinaryRequest decodes per read.
// Samples arrive through one fixed scratch buffer of this many
// float64s, and a channel's slice grows only as its bytes arrive, so a
// frame that claims more samples than it carries costs what it
// delivered, not what it claimed.
const sampleChunk = 512

// errBinaryFrame reports a malformed or over-limit binary frame. The
// remaining frame length cannot be trusted, so the connection must be
// dropped after answering.
var errBinaryFrame = fmt.Errorf("cluster: malformed binary peer frame")

// appendBinaryRequest appends req's binary frame encoding to buf
// (reused across calls for an allocation-free steady state) and
// returns the extended slice. Ops other than decide and frames encode
// zero channels.
func appendBinaryRequest(buf []byte, req *peerRequest) ([]byte, error) {
	var payload [][]float64
	switch req.Op {
	case opDecide:
		payload = req.Channels
	case opFrames:
		payload = req.Frames
	}
	hdr, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if len(hdr) > maxBinaryHeader || len(payload) > maxBinaryChannels {
		return nil, errBinaryFrame
	}
	buf = append(buf, binaryMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	for _, ch := range payload {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ch)))
		for _, v := range ch {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf, nil
}

// readBinaryRequest decodes one binary frame into req. The caller has
// already consumed the magic byte. Any error leaves the stream
// position unknown; the connection must not be reused.
func readBinaryRequest(br *bufio.Reader, req *peerRequest) error {
	hlen, err := readU32(br)
	if err != nil {
		return err
	}
	if hlen > maxBinaryHeader {
		return fmt.Errorf("%w: header %d bytes", errBinaryFrame, hlen)
	}
	// The header buffer grows as its bytes arrive, like the samples
	// below: a frame that claims more header than it carries costs
	// what it delivered.
	var hdr bytes.Buffer
	if n, err := io.CopyN(&hdr, br, int64(hlen)); err != nil {
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if err := json.Unmarshal(hdr.Bytes(), req); err != nil {
		return fmt.Errorf("%w: %v", errBinaryFrame, err)
	}
	nch, err := readU32(br)
	if err != nil {
		return err
	}
	if nch > maxBinaryChannels {
		return fmt.Errorf("%w: %d channels", errBinaryFrame, nch)
	}
	if nch == 0 {
		return nil
	}
	var total uint64
	payload := make([][]float64, nch)
	scratch := make([]byte, 8*sampleChunk)
	for i := range payload {
		n, err := readU32(br)
		if err != nil {
			return err
		}
		total += uint64(n) * 8
		if total > maxPeerLine {
			return fmt.Errorf("%w: %d payload bytes", errBinaryFrame, total)
		}
		ch := make([]float64, 0, min(int(n), sampleChunk))
		for left := int(n); left > 0; {
			k := min(left, sampleChunk)
			raw := scratch[:8*k]
			if _, err := io.ReadFull(br, raw); err != nil {
				return err
			}
			if len(ch)+k > cap(ch) {
				grown := make([]float64, len(ch), min(int(n), max(2*cap(ch), len(ch)+k)))
				copy(grown, ch)
				ch = grown
			}
			for j := 0; j < k; j++ {
				ch = append(ch, math.Float64frombits(binary.LittleEndian.Uint64(raw[j*8:])))
			}
			left -= k
		}
		payload[i] = ch
	}
	switch req.Op {
	case opDecide:
		req.Channels = payload
	case opFrames:
		req.Frames = payload
	default:
		return fmt.Errorf("%w: op %q carries a sample payload", errBinaryFrame, req.Op)
	}
	return nil
}

func readU32(br *bufio.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
