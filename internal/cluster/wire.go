// Package cluster federates several headtalkd nodes into one
// fault-tolerant serving fleet. Tenants are partitioned across nodes on
// a consistent-hash ring (pool.Ring, FNV-1a). The daemon serves the
// tenants its own pool hosts; a Node forwards requests for everyone
// else's to the owning peer over a pooled, bounded client with
// per-request deadlines, capped exponential backoff, a single hedged
// retry for idempotent decisions, and a per-peer circuit breaker, and
// answers its peers' forwards from the local pool. Health probes drive
// membership (alive → suspect → down); a down peer is removed from the
// ring with minimal remap and its forwards fail fast with
// ErrPeerUnavailable — one dead node never stalls another node's
// locally-owned tenants. Versioned, checksummed tenant snapshots
// (CaptureTenant, BuildSystemWithModels) move enrolled models between
// nodes; the daemon activates a restored tenant with restore-then-
// activate semantics.
package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/pool"
	"headtalk/internal/registry"
	"headtalk/internal/serve"
	"headtalk/internal/stream"
)

// Peer wire operations: every one a node sends. Each request is one
// binary frame (binwire.go) and yields exactly one NDJSON response
// line; connections are reused sequentially.
const (
	opPing       = "ping"
	opDecide     = "decide"
	opFrames     = "frames"
	opEndSession = "end_session"
	opSnapshot   = "snapshot"
)

// maxPeerLine bounds one peer response line and one request frame's
// sample payload. Snapshot envelopes carry whole model documents and
// decide requests carry a whole multichannel utterance, so the peer
// limit is far above the client-facing 4 MiB request cap.
const maxPeerLine = 32 * 1024 * 1024

// peerRequest is one node-to-node request: the header JSON of a binary
// frame plus its sample payload.
type peerRequest struct {
	Op     string `json:"op"`
	Tenant string `json:"tenant,omitempty"`
	// SampleRate and Channels carry the utterance for decide (one
	// inner slice per microphone channel).
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Channels and Frames travel only as the binary frame's payload,
	// never in the header JSON.
	Channels [][]float64 `json:"-"`
	// Session and Frames carry one streaming chunk for frames /
	// end_session.
	Session string      `json:"session,omitempty"`
	Frames  [][]float64 `json:"-"`
}

// peerDecision is the wire form of a core.Decision.
type peerDecision struct {
	Accepted         bool    `json:"accepted"`
	Reason           string  `json:"reason"`
	LiveScore        float64 `json:"live_score,omitempty"`
	LiveRan          bool    `json:"live_ran,omitempty"`
	FacingScore      float64 `json:"facing_score,omitempty"`
	FacingRan        bool    `json:"facing_ran,omitempty"`
	DegradedChannels int     `json:"degraded_channels,omitempty"`
}

func decisionToWire(d core.Decision) *peerDecision {
	return &peerDecision{
		Accepted:         d.Accepted,
		Reason:           string(d.Reason),
		LiveScore:        d.LiveScore,
		LiveRan:          d.LiveRan,
		FacingScore:      d.FacingScore,
		FacingRan:        d.FacingRan,
		DegradedChannels: d.DegradedChannels,
	}
}

func decisionFromWire(d *peerDecision) core.Decision {
	if d == nil {
		return core.Decision{}
	}
	return core.Decision{
		Accepted:         d.Accepted,
		Reason:           core.Reason(d.Reason),
		LiveScore:        d.LiveScore,
		LiveRan:          d.LiveRan,
		FacingScore:      d.FacingScore,
		FacingRan:        d.FacingRan,
		DegradedChannels: d.DegradedChannels,
	}
}

// peerResponse is one node-to-node NDJSON response line.
type peerResponse struct {
	OK bool `json:"ok"`
	// ErrorKind and Error describe an application-level failure (OK
	// false). Transport failures never produce a response line at all.
	ErrorKind string `json:"error_kind,omitempty"`
	Error     string `json:"error,omitempty"`
	// Decision answers decide.
	Decision *peerDecision `json:"decision,omitempty"`
	// Status, SpotScore and StreamDecision answer frames; Ended answers
	// end_session.
	Status         string        `json:"status,omitempty"`
	SpotScore      *float64      `json:"spot_score,omitempty"`
	StreamDecision *peerDecision `json:"stream_decision,omitempty"`
	Ended          *bool         `json:"ended,omitempty"`
	// Envelope answers snapshot.
	Envelope *Envelope `json:"envelope,omitempty"`
}

// RemoteError is an application-level failure reported by the owning
// peer: the forward itself worked, the peer's serving stack said no.
// It is deliberately distinct from ErrPeerUnavailable — a remote
// breaker_open or backpressure answer must not trip the local per-peer
// breaker or trigger a retry.
type RemoteError struct {
	// Kind matches the daemon's error_kind vocabulary (unknown_tenant,
	// backpressure, breaker_open, bad_input, closed, pipeline, ...).
	Kind string
	// Msg is the peer's error text.
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("cluster: remote %s: %s", e.Kind, e.Msg)
}

// statusFromString reverses stream.Status.String for forwarded frames
// responses.
func statusFromString(s string) stream.Status {
	for _, st := range []stream.Status{
		stream.StatusInvalid, stream.StatusBuffered, stream.StatusSilent,
		stream.StatusNoWake, stream.StatusSpotted, stream.StatusDecided,
	} {
		if st.String() == s {
			return st
		}
	}
	return stream.StatusInvalid
}

// ErrorKind classifies a serving error for the error_kind field. It is
// the one vocabulary of the daemon's responses and of the peer wire, so
// a request a peer serves reports the same kind as one served locally.
func ErrorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, pool.ErrUnknownTenant):
		return "unknown_tenant"
	case errors.Is(err, serve.ErrQueueFull):
		return "backpressure"
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrNotStarted),
		errors.Is(err, pool.ErrPoolClosed), errors.Is(err, stream.ErrClosed):
		return "closed"
	case errors.Is(err, serve.ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, stream.ErrSessionLimit):
		return "session_limit"
	case errors.Is(err, stream.ErrBadFrame):
		return "bad_input"
	case errors.Is(err, serve.ErrNoStream):
		return "request"
	case errors.Is(err, ErrPeerUnavailable):
		return "peer_unavailable"
	case errors.Is(err, ErrSnapshotVersion), errors.Is(err, ErrSnapshotChecksum), errors.Is(err, ErrSnapshotCorrupt):
		return "snapshot"
	case errors.Is(err, registry.ErrModelVersion), errors.Is(err, registry.ErrModelCorrupt):
		return "model"
	case serve.IsPanic(err):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline"
	}
	// A forwarded request the owning peer rejected keeps the peer's
	// own error_kind.
	var remote *RemoteError
	if errors.As(err, &remote) && remote.Kind != "" {
		return remote.Kind
	}
	if _, ok := audio.AsBadInput(err); ok {
		return "bad_input"
	}
	return "pipeline"
}

// ErrLineTooLong reports a line longer than ReadBoundedLine's bound;
// the line has been fully consumed when it is returned.
var ErrLineTooLong = errors.New("cluster: peer line too long")

// ReadBoundedLine reads one newline-terminated line of at most max
// bytes (newline excluded, trailing \r trimmed) into buf[:0], growing
// it as needed, and returns the line. The line aliases buf: a caller
// that passes it back as buf on the next call reuses its capacity, and
// must not keep the line past that call. A longer line is consumed to
// its end and reported as ErrLineTooLong, leaving the reader
// positioned at the next line. io.EOF is returned only with no pending
// bytes. On error the returned slice is empty, with buf's capacity.
func ReadBoundedLine(br *bufio.Reader, buf []byte, max int) ([]byte, error) {
	buf = buf[:0]
	oversized := false
	for {
		frag, err := br.ReadSlice('\n')
		if !oversized {
			if len(buf)+len(frag) > max+1 { // +1: the newline itself
				oversized = true
				buf = buf[:0]
			} else {
				buf = append(buf, frag...)
			}
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil, io.EOF:
			if oversized {
				return buf, ErrLineTooLong
			}
			if err == io.EOF && len(buf) == 0 {
				return buf, io.EOF
			}
			buf = bytes.TrimSuffix(buf, []byte("\n"))
			buf = bytes.TrimSuffix(buf, []byte("\r"))
			return buf, nil
		default:
			return buf[:0], err
		}
	}
}
