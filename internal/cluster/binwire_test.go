package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// peerWire reads the negotiated wire state of from's client for to.
func (c *testCluster) peerWire(from, to string) int32 {
	c.t.Helper()
	n := c.nodes[from]
	n.mu.RLock()
	defer n.mu.RUnlock()
	p, ok := n.peers[to]
	if !ok {
		c.t.Fatalf("node %s has no peer %s", from, to)
	}
	return p.client.wire.Load()
}

// TestBinaryFrameRoundTrip: a decide request survives the binary
// encode/decode cycle bit-exactly, and the op-implied payload field is
// reattached on the right side.
func TestBinaryFrameRoundTrip(t *testing.T) {
	rec := testRecording(11)
	req := peerRequest{
		Op:         opDecide,
		ID:         "r-1",
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
	if got.Op != req.Op || got.ID != req.ID || got.Tenant != req.Tenant || got.SampleRate != req.SampleRate {
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

	// Ops without sample payloads have no binary form.
	if _, err := appendBinaryRequest(nil, &peerRequest{Op: opPing}); err == nil {
		t.Fatal("ping encoded as a binary frame")
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
		u32(b, 0)
	}), &req); !errors.Is(err, errBinaryFrame) {
		t.Fatalf("payload on ping: err = %v", err)
	}
}

// TestMixedWireFederation: binary-capable nodes negotiate the binary
// frame between themselves while a JSON-pinned node interoperates in
// both directions on the fallback, all on the same federation.
func TestMixedWireFederation(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2", "legacy"}, clusterOpts{
		tune: func(id string, cfg *Config) {
			if id == "legacy" {
				cfg.DisableBinaryWire = true
			}
		},
	})
	tenants := map[string]string{
		"n1":     c.tenantOwnedBy("n1", "n1"),
		"n2":     c.tenantOwnedBy("n1", "n2"),
		"legacy": c.tenantOwnedBy("n1", "legacy"),
	}
	for node, id := range tenants {
		c.addTenant(node, id, plainSystem(t))
	}
	seed := uint64(100)
	for _, from := range []string{"n1", "n2", "legacy"} {
		for to, tenant := range tenants {
			if to == from {
				continue
			}
			seed++
			d, forwarded, err := c.nodes[from].Decide(context.Background(), tenant, testRecording(seed))
			if err != nil || !forwarded || !d.Accepted {
				t.Fatalf("%s→%s decide = %+v, forwarded=%v, err=%v", from, to, d, forwarded, err)
			}
		}
	}
	// Capable pairs settled on binary; anything touching the pinned
	// node settled on JSON — in both directions.
	if got := c.peerWire("n1", "n2"); got != wireBinary {
		t.Fatalf("n1→n2 wire = %d, want binary", got)
	}
	if got := c.peerWire("n2", "n1"); got != wireBinary {
		t.Fatalf("n2→n1 wire = %d, want binary", got)
	}
	if got := c.peerWire("n1", "legacy"); got != wireJSON {
		t.Fatalf("n1→legacy wire = %d, want JSON", got)
	}
	if got := c.peerWire("legacy", "n1"); got != wireJSON {
		t.Fatalf("legacy→n1 wire = %d, want JSON", got)
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

// TestHelloNegotiation: a hello exchange settles the encoding once; a
// server with the binary wire disabled answers negatively and the
// client pins JSON.
func TestHelloNegotiation(t *testing.T) {
	c := newTestCluster(t, []string{"a", "b"}, clusterOpts{
		tune: func(id string, cfg *Config) {
			if id == "b" {
				cfg.DisableBinaryWire = true
			}
		},
	})
	remote := c.tenantOwnedBy("a", "b")
	c.addTenant("b", remote, plainSystem(t))
	if got := c.peerWire("a", "b"); got != wireUnknown {
		t.Fatalf("wire settled before any forward: %d", got)
	}
	if _, _, err := c.nodes["a"].Decide(context.Background(), remote, testRecording(3)); err != nil {
		t.Fatal(err)
	}
	if got := c.peerWire("a", "b"); got != wireJSON {
		t.Fatalf("a→b wire = %d, want JSON against a disabled server", got)
	}
}
