package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"headtalk/internal/metrics"
	"headtalk/internal/serve"
)

// maxIdleConns bounds the per-peer idle connection pool; excess
// connections are closed rather than cached.
const maxIdleConns = 4

// peerConn is one pooled peer connection with its read buffer and
// encode scratch, which live and die with the connection — pooling
// them together keeps repeat round trips free of the 64 KiB reader
// and frame-buffer allocations.
type peerConn struct {
	net.Conn
	br  *bufio.Reader
	buf []byte
}

// peerClient is the forwarding path to one peer: a small pool of
// reused TCP connections, an in-flight semaphore bounding concurrent
// forwards, capped exponential backoff with jitter between retries,
// and a circuit breaker (the serving engine's consecutive-failure
// breaker, where "failure" means a transport-level round-trip failure
// — a peer that answers with an application error is healthy).
type peerClient struct {
	id   string
	addr string
	cfg  *Config

	breaker  *serve.Breaker
	conns    chan *peerConn
	inflight chan struct{}
	closed   atomic.Bool

	latency *metrics.Histogram // round-trip latency, successful attempts
	retries *metrics.Counter   // re-attempts after a transport failure
}

func newPeerClient(id, addr string, cfg *Config, reg *metrics.Registry) *peerClient {
	prefix := "cluster.peer." + id + "."
	return &peerClient{
		id:       id,
		addr:     addr,
		cfg:      cfg,
		breaker:  serve.NewBreaker(breakerThreshold, cfg.BreakerCooldown, nil, reg.Gauge(prefix+"breaker.state")),
		conns:    make(chan *peerConn, maxIdleConns),
		inflight: make(chan struct{}, maxInFlight),
		latency:  reg.Histogram(prefix+"forward.latency", nil),
		retries:  reg.Counter(prefix + "retries.total"),
	}
}

// call performs one request/response round trip. With retry true (safe
// for idempotent operations only) a transport failure is retried up to
// retryMax times with capped exponential backoff plus jitter; an
// application-level error from the peer (ok=false) is returned as a
// *RemoteError immediately and never retried. Every transport failure
// feeds the per-peer breaker; an open breaker fails fast with
// ErrPeerUnavailable without touching the network.
func (c *peerClient) call(ctx context.Context, req peerRequest, retry bool) (*peerResponse, error) {
	select {
	case c.inflight <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: peer %s: %v", ErrPeerUnavailable, c.id, ctx.Err())
	}
	defer func() { <-c.inflight }()

	attempts := 1
	if retry {
		attempts += retryMax
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			if err := sleepCtx(ctx, backoff(c.cfg.RetryBase, c.cfg.RetryCap, attempt)); err != nil {
				break
			}
		}
		if c.closed.Load() {
			return nil, fmt.Errorf("%w: peer %s: client closed", ErrPeerUnavailable, c.id)
		}
		allowed, probe := c.breaker.Allow()
		if !allowed {
			lastErr = fmt.Errorf("%w: peer %s: breaker open", ErrPeerUnavailable, c.id)
			continue
		}
		start := time.Now()
		resp, err := c.roundTrip(ctx, req)
		c.breaker.Record(err == nil, probe)
		if err != nil {
			lastErr = fmt.Errorf("%w: peer %s: %v", ErrPeerUnavailable, c.id, err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		c.latency.ObserveDuration(time.Since(start))
		if !resp.OK {
			return nil, &RemoteError{Kind: resp.ErrorKind, Msg: resp.Error}
		}
		return resp, nil
	}
	return nil, lastErr
}

// roundTrip writes one request as a binary frame and reads one NDJSON
// response line on a pooled (or freshly dialed) connection, with every
// byte bounded by the context deadline. Any failure closes the
// connection — a conn whose stream alignment is unknown must never
// return to the pool.
func (c *peerClient) roundTrip(ctx context.Context, req peerRequest) (*peerResponse, error) {
	pc, err := c.getConn(ctx)
	if err != nil {
		return nil, err
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(c.cfg.ForwardTimeout)
	}
	if err := pc.SetDeadline(deadline); err != nil {
		pc.Close()
		return nil, err
	}
	if pc.buf, err = appendBinaryRequest(pc.buf[:0], &req); err != nil {
		pc.Close()
		return nil, err
	}
	if _, err := pc.Write(pc.buf); err != nil {
		pc.Close()
		return nil, err
	}
	// The request bytes are written, so pc.buf takes the response line.
	line, err := ReadBoundedLine(pc.br, pc.buf, maxPeerLine)
	if err != nil {
		pc.Close()
		return nil, err
	}
	pc.buf = line[:0]
	// The reader may have buffered bytes past the response line; with
	// the strict one-response-per-request protocol there are none, so
	// the conn can be pooled.
	if pc.br.Buffered() > 0 {
		pc.Close()
		return nil, fmt.Errorf("peer %s sent %d unexpected trailing bytes", c.id, pc.br.Buffered())
	}
	var resp peerResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		pc.Close()
		return nil, fmt.Errorf("decoding peer response: %w", err)
	}
	_ = pc.SetDeadline(time.Time{})
	c.putConn(pc)
	return &resp, nil
}

func (c *peerClient) getConn(ctx context.Context) (*peerConn, error) {
	select {
	case pc := <-c.conns:
		return pc, nil
	default:
	}
	dialCtx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dialCtx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &peerConn{Conn: conn, br: bufio.NewReaderSize(conn, 64*1024)}, nil
}

func (c *peerClient) putConn(pc *peerConn) {
	if c.closed.Load() {
		pc.Close()
		return
	}
	select {
	case c.conns <- pc:
	default:
		pc.Close()
	}
}

// close drops the idle pool. In-flight round trips finish (or time
// out) on their own connections.
func (c *peerClient) close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for {
		select {
		case pc := <-c.conns:
			pc.Close()
		default:
			return
		}
	}
}

// backoff returns the capped exponential delay before retry attempt
// n (n ≥ 1), with ±25% jitter so a fleet of retries against a
// recovering peer does not synchronize.
func backoff(base, cap_ time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > cap_ || d <= 0 {
		d = cap_
	}
	jitter := time.Duration(rand.Int64N(int64(d)/2+1)) - d/4
	return d + jitter
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
