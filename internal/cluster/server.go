package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"headtalk/internal/audio"
	"headtalk/internal/pool"
)

// Serve accepts peer connections on ln and answers the node-to-node
// NDJSON protocol until the listener is closed. Each connection is
// sequential: one request line, one response line. Dispatch is
// strictly local — a request for a tenant this node does not host is
// answered with unknown_tenant, never re-forwarded, so a stale ring on
// one node can never start a forwarding loop.
func (n *Node) Serve(ln net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.servePeerConn(conn)
		}()
	}
}

func (n *Node) servePeerConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64*1024)
	enc := json.NewEncoder(conn)
	var line []byte // reused for every NDJSON request line
	for {
		// Dispatch on the first byte: 0xB1 opens a binary frame, anything
		// else is an NDJSON line. Responses are NDJSON either way.
		first, err := br.Peek(1)
		if err != nil {
			return // EOF, peer hangup, or transport damage: drop the conn
		}
		var req peerRequest
		resp := peerResponse{OK: true, Node: n.cfg.NodeID}
		if first[0] == binaryMagic {
			_, _ = br.ReadByte()
			if err := readBinaryRequest(br, &req); err != nil {
				// A bad binary frame leaves the stream position unknown:
				// answer, then drop the connection rather than misparse
				// whatever follows.
				_ = enc.Encode(peerResponse{OK: false, ErrorKind: "bad_input", Error: fmt.Sprintf("decoding binary peer frame: %v", err)})
				return
			}
			if err := n.handlePeer(&req, &resp); err != nil {
				resp = peerResponse{OK: false, Node: n.cfg.NodeID, ErrorKind: kindOf(err), Error: err.Error()}
			}
			if err := enc.Encode(resp); err != nil {
				return
			}
			continue
		}
		line, err = ReadBoundedLine(br, line, maxPeerLine)
		if err != nil {
			if errors.Is(err, ErrLineTooLong) {
				// The line was consumed; tell the peer before moving on.
				_ = enc.Encode(peerResponse{OK: false, ErrorKind: "bad_input", Error: ErrLineTooLong.Error()})
				continue
			}
			return
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &req); err != nil {
			resp = peerResponse{OK: false, ErrorKind: "bad_input", Error: fmt.Sprintf("decoding peer request: %v", err)}
		} else if err := n.handlePeer(&req, &resp); err != nil {
			resp = peerResponse{OK: false, Node: n.cfg.NodeID, ErrorKind: kindOf(err), Error: err.Error()}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// handlePeer executes one peer request against local state only,
// filling resp on success.
func (n *Node) handlePeer(req *peerRequest, resp *peerResponse) error {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ForwardTimeout)
	defer cancel()
	switch req.Op {
	case opPing:
		return nil
	case opHello:
		resp.Binary = !n.cfg.DisableBinaryWire
		return nil
	case opDecide:
		t, ok := n.cfg.Pool.Tenant(req.Tenant)
		if !ok {
			return fmt.Errorf("%w: %q", pool.ErrUnknownTenant, req.Tenant)
		}
		if len(req.Channels) == 0 {
			return fmt.Errorf("decide for %q carries no audio", req.Tenant)
		}
		dec, err := t.Engine().Decide(ctx, &audio.Recording{SampleRate: req.SampleRate, Channels: req.Channels})
		if err != nil {
			return err
		}
		resp.Decision = decisionToWire(dec)
		return nil
	case opFrames:
		t, ok := n.cfg.Pool.Tenant(req.Tenant)
		if !ok {
			return fmt.Errorf("%w: %q", pool.ErrUnknownTenant, req.Tenant)
		}
		res, err := t.Engine().PushFrames(ctx, req.Session, req.Frames)
		if err != nil {
			return err
		}
		resp.Status = res.Status.String()
		score := res.SpotScore
		resp.SpotScore = &score
		if res.Decision != nil {
			resp.StreamDecision = decisionToWire(*res.Decision)
		}
		return nil
	case opEndSession:
		t, ok := n.cfg.Pool.Tenant(req.Tenant)
		if !ok {
			return fmt.Errorf("%w: %q", pool.ErrUnknownTenant, req.Tenant)
		}
		ended, err := t.Engine().EndSession(req.Session)
		if err != nil {
			return err
		}
		resp.Ended = &ended
		return nil
	case opSnapshot:
		t, ok := n.cfg.Pool.Tenant(req.Tenant)
		if !ok {
			return fmt.Errorf("%w: %q", pool.ErrUnknownTenant, req.Tenant)
		}
		var device, room string
		if n.cfg.Profile != nil {
			device, room = n.cfg.Profile(req.Tenant)
		}
		env, err := CaptureTenant(t, device, room)
		if err != nil {
			return err
		}
		resp.Envelope = env
		return nil
	case opRestore:
		if req.Envelope == nil {
			return fmt.Errorf("%w: restore carries no envelope", ErrSnapshotCorrupt)
		}
		return n.Restore(ctx, req.Envelope)
	case opJoin:
		return n.Join(req.Node, req.Addr)
	case opLeave:
		return n.Leave(req.Node)
	default:
		return fmt.Errorf("unknown peer op %q", req.Op)
	}
}

// ServeLoop runs Serve in a goroutine tied to the node's lifecycle:
// the listener is closed when the node closes. Convenience for daemons
// and tests.
func (n *Node) ServeLoop(ln net.Listener) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		<-n.stop
		ln.Close()
	}()
	go func() {
		if err := n.Serve(ln); err != nil && !errors.Is(err, io.EOF) {
			// Accept-loop failures after close are expected; anything else
			// has nowhere to go but the void — the daemon monitors its own
			// listener separately.
			_ = err
		}
	}()
}
