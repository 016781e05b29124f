package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"testing"
	"time"

	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/pool"
	"headtalk/internal/speech"
	"headtalk/internal/stream"
	"headtalk/internal/va"
)

// TestBinaryFrameRoundTrip: a decide request survives the binary
// encode/decode cycle bit-exactly, and the op-implied payload field is
// reattached on the right side.
func TestBinaryFrameRoundTrip(t *testing.T) {
	rec := testRecording(11)
	req := peerRequest{
		Op:         opDecide,
		Tenant:     "tenant-roundtrip",
		SampleRate: rec.SampleRate,
		Channels:   rec.Channels,
	}
	buf, err := appendBinaryRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != binaryMagic {
		t.Fatalf("frame starts with 0x%02X, want 0x%02X", buf[0], binaryMagic)
	}
	br := bufio.NewReader(bytes.NewReader(buf[1:])) // caller consumes the magic
	var got peerRequest
	if err := readBinaryRequest(br, &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.Tenant != req.Tenant || got.SampleRate != req.SampleRate {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Channels) != len(req.Channels) {
		t.Fatalf("channels = %d, want %d", len(got.Channels), len(req.Channels))
	}
	for c := range got.Channels {
		for i := range got.Channels[c] {
			if got.Channels[c][i] != req.Channels[c][i] {
				t.Fatalf("channel %d sample %d = %v, want %v", c, i, got.Channels[c][i], req.Channels[c][i])
			}
		}
	}
	if got.Frames != nil {
		t.Fatalf("decide frame reattached payload to Frames")
	}

	// frames op routes the payload to Frames instead.
	freq := peerRequest{Op: opFrames, Tenant: "t", Session: "s", Frames: [][]float64{{1, 2, 3}, {4, 5}}}
	buf, err = appendBinaryRequest(buf[:0], &freq)
	if err != nil {
		t.Fatal(err)
	}
	var fgot peerRequest
	if err := readBinaryRequest(bufio.NewReader(bytes.NewReader(buf[1:])), &fgot); err != nil {
		t.Fatal(err)
	}
	if fgot.Session != "s" || len(fgot.Frames) != 2 || fgot.Frames[1][1] != 5 || fgot.Channels != nil {
		t.Fatalf("frames round trip = %+v", fgot)
	}

	// Ops without sample payloads travel as zero-channel frames.
	buf, err = appendBinaryRequest(buf[:0], &peerRequest{Op: opSnapshot, Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	var sgot peerRequest
	if err := readBinaryRequest(bufio.NewReader(bytes.NewReader(buf[1:])), &sgot); err != nil {
		t.Fatal(err)
	}
	if sgot.Op != opSnapshot || sgot.Tenant != "t" || sgot.Channels != nil || sgot.Frames != nil {
		t.Fatalf("snapshot round trip = %+v", sgot)
	}
}

// TestBinaryFrameDecodeBounds: oversized headers, channel counts and
// payloads are rejected before any large allocation happens.
func TestBinaryFrameDecodeBounds(t *testing.T) {
	frame := func(build func(*bytes.Buffer)) *bufio.Reader {
		var b bytes.Buffer
		build(&b)
		return bufio.NewReader(&b)
	}
	u32 := func(b *bytes.Buffer, v uint32) {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], v)
		b.Write(tmp[:])
	}
	var req peerRequest
	if err := readBinaryRequest(frame(func(b *bytes.Buffer) {
		u32(b, maxBinaryHeader+1)
	}), &req); !errors.Is(err, errBinaryFrame) {
		t.Fatalf("oversized header: err = %v", err)
	}
	if err := readBinaryRequest(frame(func(b *bytes.Buffer) {
		hdr, _ := json.Marshal(peerRequest{Op: opDecide})
		u32(b, uint32(len(hdr)))
		b.Write(hdr)
		u32(b, maxBinaryChannels+1)
	}), &req); !errors.Is(err, errBinaryFrame) {
		t.Fatalf("too many channels: err = %v", err)
	}
	if err := readBinaryRequest(frame(func(b *bytes.Buffer) {
		b.WriteString("not json")
	}), &req); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if err := readBinaryRequest(frame(func(b *bytes.Buffer) {
		hdr, _ := json.Marshal(peerRequest{Op: opPing})
		u32(b, uint32(len(hdr)))
		b.Write(hdr)
		u32(b, 1)
		u32(b, 0)
	}), &req); !errors.Is(err, errBinaryFrame) {
		t.Fatalf("payload on ping: err = %v", err)
	}
}

// claimsManySamples is a 36-byte decide frame (35 after the magic
// byte) whose one channel claims 4 000 000 samples but carries one.
func claimsManySamples() []byte {
	hdr := []byte(`{"op":"decide"}`)
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	b = binary.LittleEndian.AppendUint32(b, 1)         // channels
	b = binary.LittleEndian.AppendUint32(b, 4_000_000) // claimed samples
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	return b
}

// claimsLongHeader is a 5-byte frame (after the magic byte) whose
// header claims the 1 MiB limit but carries one '{'.
func claimsLongHeader() []byte {
	b := binary.LittleEndian.AppendUint32(nil, maxBinaryHeader)
	return append(b, '{')
}

// TestBinaryFrameClaimAllocatesWhatArrives: a frame claiming far more
// samples or header than it carries fails, and what the decoder
// allocated on the way is tied to the bytes that arrived, not to the
// claim (4 000 000 samples would be 61 MiB sized up front, the header
// 1 MiB).
func TestBinaryFrameClaimAllocatesWhatArrives(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		limit uint64
	}{
		{"samples", claimsManySamples(), 1 << 20},
		{"header", claimsLongHeader(), 64 << 10},
	} {
		br := bufio.NewReader(bytes.NewReader(tc.frame))
		var req peerRequest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readBinaryRequest(br, &req)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a frame short of its claim decoded", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= tc.limit {
			t.Fatalf("%s: decoding a %d-byte frame allocated %d bytes, want < %d", tc.name, len(tc.frame), got, tc.limit)
		}
	}
}

// TestBinaryFrameBadInputDropsConn: a malformed binary frame gets a
// bad_input answer and then the connection is dropped — the server
// cannot trust stream alignment after a bad frame.
func TestBinaryFrameBadInputDropsConn(t *testing.T) {
	c := newTestCluster(t, []string{"solo"}, clusterOpts{})
	conn, err := net.DialTimeout("tcp", c.addrs["solo"], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))

	// magic + absurd header length
	frame := []byte{binaryMagic, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := ReadBoundedLine(br, nil, maxPeerLine)
	if err != nil {
		t.Fatal(err)
	}
	var resp peerResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.ErrorKind != "bad_input" {
		t.Fatalf("bad frame answered %+v, want bad_input", resp)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("conn still open after bad frame: err = %v", err)
	}
}

// TestJSONLinesCarryNoSamples: samples ride only the binary frame. A
// raw NDJSON decide carrying "channels" and a frames push carrying
// "frames" for a hosted, streaming tenant are each refused as bad_input
// and their connection dropped, and nothing is decided or buffered.
func TestJSONLinesCarryNoSamples(t *testing.T) {
	c := newTestCluster(t, []string{"solo"}, clusterOpts{})
	tenant := c.tenantOwnedBy("solo", "solo")
	sysMetrics := metrics.NewRegistry()
	sys, err := core.NewSystem(core.Config{Metrics: sysMetrics})
	if err != nil {
		t.Fatal(err)
	}
	spotter, err := va.NewSpotter(speech.WordComputer, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.pools["solo"].AddTenant(pool.TenantConfig{
		ID: tenant, System: sys, Workers: 2, QueueSize: 8,
		Streaming: &stream.Config{SampleRate: 48000, Channels: 4, Spotter: spotter, JanitorEvery: -1},
	}); err != nil {
		t.Fatal(err)
	}
	rec := testRecording(21)
	chunk := make([][]float64, len(rec.Channels))
	for i, ch := range rec.Channels {
		chunk[i] = ch[:480]
	}
	for _, raw := range []map[string]any{
		{"op": opDecide, "tenant": tenant, "sample_rate": rec.SampleRate, "channels": rec.Channels},
		{"op": opFrames, "tenant": tenant, "session": "s", "frames": chunk},
	} {
		line, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.DialTimeout("tcp", c.addrs["solo"], time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		// The server answers from the first byte and drops the conn
		// mid-line, so the write may fail; only the answer matters.
		go conn.Write(append(line, '\n'))
		reply, err := ReadBoundedLine(br, nil, maxPeerLine)
		if err != nil {
			t.Fatal(err)
		}
		var resp peerResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.ErrorKind != "bad_input" || resp.Decision != nil || resp.Status != "" {
			t.Fatalf("JSON %s line answered %+v, want a bad_input refusal", raw["op"], resp)
		}
		if _, err := br.ReadByte(); err == nil {
			t.Fatalf("conn still open after a JSON %s line", raw["op"])
		}
	}
	if n := sysMetrics.Counter("headtalk.decisions.total").Value(); n != 0 {
		t.Fatalf("JSON sample lines reached the tenant: %d decisions", n)
	}
	if ten, _ := c.pools["solo"].Tenant(tenant); ten.Metrics().Snapshot().Counters["stream.sessions.created"] != 0 {
		t.Fatal("JSON frames line opened a stream session")
	}
}

// FuzzBinaryRequest: readBinaryRequest (magic byte already consumed)
// never panics, and every frame it accepts survives an
// appendBinaryRequest → readBinaryRequest round trip with the same
// header and bit-identical samples.
func FuzzBinaryRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req peerRequest
		if err := readBinaryRequest(bufio.NewReader(bytes.NewReader(data)), &req); err != nil {
			return
		}
		buf, err := appendBinaryRequest(nil, &req)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		var again peerRequest
		if err := readBinaryRequest(bufio.NewReader(bytes.NewReader(buf[1:])), &again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		h1, err1 := json.Marshal(&req)
		h2, err2 := json.Marshal(&again)
		if err1 != nil || err2 != nil || !bytes.Equal(h1, h2) {
			t.Fatalf("header changed across the round trip:\n%s\n%s", h1, h2)
		}
		if !sameBits(req.Channels, again.Channels) || !sameBits(req.Frames, again.Frames) {
			t.Fatal("samples changed across the round trip")
		}
	})
}

// sameBits reports whether a and b hold the same shape and the same
// IEEE-754 bit patterns (NaN payloads included).
func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
