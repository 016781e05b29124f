package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"headtalk/internal/audio"
	"headtalk/internal/pool"
)

// Serve accepts peer connections on ln and answers the node-to-node
// protocol until the listener is closed. Each connection is
// sequential: one binary request frame, one NDJSON response line.
// Dispatch is strictly local — a request for a tenant this node does not host is
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
	for {
		magic, err := br.ReadByte()
		if err != nil {
			return // EOF, peer hangup, or transport damage: drop the conn
		}
		var req peerRequest
		if magic != binaryMagic {
			err = fmt.Errorf("%w: first byte 0x%02X, want 0x%02X", errBinaryFrame, magic, binaryMagic)
		} else {
			err = readBinaryRequest(br, &req)
		}
		if err != nil {
			// A bad frame leaves the stream position unknown: answer,
			// then drop the connection rather than misparse whatever
			// follows.
			_ = enc.Encode(peerResponse{ErrorKind: "bad_input", Error: fmt.Sprintf("decoding binary peer frame: %v", err)})
			return
		}
		resp := peerResponse{OK: true}
		if err := n.handlePeer(&req, &resp); err != nil {
			resp = peerResponse{ErrorKind: ErrorKind(err), Error: err.Error()}
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
	var t *pool.Tenant
	switch req.Op {
	case opDecide, opFrames, opEndSession, opSnapshot:
		var ok bool
		if t, ok = n.cfg.Pool.Tenant(req.Tenant); !ok {
			return fmt.Errorf("%w: %q", pool.ErrUnknownTenant, req.Tenant)
		}
	}
	switch req.Op {
	case opPing:
		return nil
	case opDecide:
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
		ended, err := t.Engine().EndSession(req.Session)
		if err != nil {
			return err
		}
		resp.Ended = &ended
		return nil
	case opSnapshot:
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
	// Accept-loop failures have nowhere to go: the daemon monitors its
	// own listeners.
	go func() { _ = n.Serve(ln) }()
}
