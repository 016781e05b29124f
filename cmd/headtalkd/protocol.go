package main

import (
	"encoding/json"
	"fmt"

	"headtalk"
	"headtalk/internal/cluster"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/metrics"
	"headtalk/internal/pool"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
)

// protocolVersion is the newest NDJSON protocol this daemon speaks.
// Requests may carry "v"; absent means version 1. Every version from 1
// through protocolVersion is accepted; anything else is rejected with
// error_kind "unsupported_version".
const protocolVersion = 5

// defaultSessionID names the streaming session used when a frames or
// end_session request carries no "session" field.
const defaultSessionID = "default"

// maxRequestLine bounds one NDJSON request line. The largest lines are
// frames pushes: a 10 ms chunk of 4 channels × 480 samples is ~40 KB,
// so 4 MiB admits chunks of up to ~200 000 samples in all (about a
// second of 4-channel audio per push), while a hostile line is dropped
// before it can grow without limit.
const maxRequestLine = 4 * 1024 * 1024

// request is one NDJSON input line.
type request struct {
	// V is the protocol version; nil or 1 selects today's protocol.
	V *int `json:"v,omitempty"`
	// Tenant routes the request inside the pool; empty uses the daemon's
	// default tenant. Applies to decision and control requests alike.
	Tenant string `json:"tenant,omitempty"`
	ID     string `json:"id"`
	// WAV names a multi-channel utterance file on disk.
	WAV string `json:"wav,omitempty"`
	// Condition synthesizes the utterance instead (zero values pick the
	// tenant's device/room, falling back to the paper's defaults: lab
	// room, device D2, "Computer", facing).
	Condition *dataset.Condition `json:"condition,omitempty"`
	// Mode, when set, is a control request switching the tenant's
	// privacy mode.
	Mode string `json:"mode,omitempty"`
	// Health, when true, is a control request for the tenant's health
	// snapshot (breaker state, queue depth, panic counts).
	Health bool `json:"health,omitempty"`
	// Trace has two meanings. Alone ({"trace":true}) it is a control
	// request toggling the tenant's store-wide tracing. Alongside a
	// wav/condition it forces a trace for that one decision (even with
	// the store off) and inlines the stage table in the response.
	Trace *bool `json:"trace,omitempty"`
	// Frames pushes one chunk of 48 kHz multichannel samples (one inner
	// array per microphone channel) into the tenant's streaming session
	// named by Session. Requires protocol version 2.
	Frames [][]float64 `json:"frames,omitempty"`
	// Session names the streaming session Frames and EndSession act on;
	// empty uses "default". Sessions are scoped per tenant.
	Session string `json:"session,omitempty"`
	// EndSession closes the named streaming session, releasing its ring
	// buffer. Requires protocol version 2.
	EndSession bool `json:"end_session,omitempty"`

	// Snapshot captures the tenant's versioned, checksummed state
	// envelope (models, thresholds, profile) — served locally or fetched
	// from the owning peer. Requires protocol version 3.
	Snapshot bool `json:"snapshot,omitempty"`
	// Restore activates the envelope's tenant on THIS node
	// (restore-then-activate: a failed restore leaves any existing
	// tenant serving). Requires protocol version 3.
	Restore *cluster.Envelope `json:"restore,omitempty"`
	// Join adds (or re-addresses) a federation peer; Leave removes one.
	// Both require protocol version 3 and a federated daemon.
	Join  *joinSpec `json:"join,omitempty"`
	Leave string    `json:"leave,omitempty"`

	// Arrays requests a multi-array fused decision: every array's
	// capture of the same utterance runs the tenant's pipeline and the
	// per-array posteriors are fused (health-weighted) into one
	// room-level accept/reject. Requires protocol version 4.
	Arrays []arraySpec `json:"arrays,omitempty"`

	// ModelStatus, when true, reports the tenant's model registry:
	// per-kind versions with lifecycle states and checksums, plus the
	// drift detector's state. Requires protocol version 5.
	ModelStatus bool `json:"model_status,omitempty"`
	// Promote hot-swaps the named version of a model kind to active
	// (atomic, no drain). Requires protocol version 5.
	Promote *promoteSpec `json:"promote,omitempty"`
	// Rollback names a model kind whose previously active version is
	// reactivated, byte-for-byte. Requires protocol version 5.
	Rollback string `json:"rollback,omitempty"`
}

// promoteSpec is the body of a v5 promote request.
type promoteSpec struct {
	// Kind is the model family: orientation | liveness | fingerprint.
	Kind string `json:"kind"`
	// Version is the registry version number to activate.
	Version uint64 `json:"version"`
}

// joinSpec is the body of a v3 join request.
type joinSpec struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

// arraySpec is one array's capture inside a v4 fused request. Exactly
// one of WAV or Condition must be set (matching single-array requests).
type arraySpec struct {
	// ID names the array in the fused response ("kitchen", ...).
	ID string `json:"id,omitempty"`
	// WAV names a multi-channel utterance file on disk.
	WAV string `json:"wav,omitempty"`
	// Condition synthesizes the capture (zero values default to the
	// tenant's device/room).
	Condition *dataset.Condition `json:"condition,omitempty"`
	// Weight overrides the health-derived fusion weight when > 0.
	Weight float64 `json:"weight,omitempty"`
}

// response is one NDJSON output line.
type response struct {
	Type string `json:"type"` // decision | stream | ok | error | health | metrics
	ID   string `json:"id,omitempty"`
	// Tenant echoes which tenant served the line (multi-tenant daemons
	// only; single-tenant responses stay flat).
	Tenant      string   `json:"tenant,omitempty"`
	Accepted    *bool    `json:"accepted,omitempty"`
	Reason      string   `json:"reason,omitempty"`
	ReasonSlug  string   `json:"reason_slug,omitempty"`
	LiveScore   *float64 `json:"live_score,omitempty"`
	FacingScore *float64 `json:"facing_score,omitempty"`
	QueueWaitUS int64    `json:"queue_wait_us,omitempty"`
	TotalUS     int64    `json:"total_us,omitempty"`
	Mode        string   `json:"mode,omitempty"`
	Error       string   `json:"error,omitempty"`
	// ErrorKind classifies error lines so clients can branch without
	// parsing error strings: parse | oversized | unsupported_version |
	// unknown_tenant | request | wav | mode | bad_input | session_limit |
	// panic | breaker_open | backpressure | closed | deadline | pipeline.
	ErrorKind string `json:"error_kind,omitempty"`

	// Session and Status report what one v2 frames push accomplished:
	// how far the chunk got through the early-exit cascade (buffered,
	// silent, no_wake, spotted, decided). SpotScore carries the best
	// wake-word window score once the spotter has a full window; Ended
	// acknowledges an end_session request.
	Session   string   `json:"session,omitempty"`
	Status    string   `json:"status,omitempty"`
	SpotScore *float64 `json:"spot_score,omitempty"`
	Ended     *bool    `json:"ended,omitempty"`
	// Speaker attributes a spotted/decided chunk to a tracked speaker
	// (TDoA-signature clustering across utterances).
	Speaker *speakerEcho `json:"speaker,omitempty"`

	// Arrays carries the per-array breakdown of a v4 fused decision;
	// BestArray names the used array with the strongest facing margin
	// and ArraysUsed/ArraysDropped count how many contributed evidence.
	Arrays        []arrayResult `json:"arrays,omitempty"`
	BestArray     string        `json:"best_array,omitempty"`
	ArraysUsed    int           `json:"arrays_used,omitempty"`
	ArraysDropped int           `json:"arrays_dropped,omitempty"`

	// Forwarded marks a line served by another federation node on the
	// requester's behalf.
	Forwarded bool `json:"forwarded,omitempty"`
	// Envelope answers a v3 snapshot request.
	Envelope *cluster.Envelope `json:"envelope,omitempty"`

	// Models answers a v5 model_status request: every model family's
	// versions with lifecycle states and checksums. Drift rides along
	// with the orientation drift detector's state.
	Models []headtalk.ModelKindStatus `json:"models,omitempty"`
	Drift  *headtalk.DriftState       `json:"drift,omitempty"`
	// Kind and Version echo what a promote/rollback acted on.
	Kind    string `json:"kind,omitempty"`
	Version uint64 `json:"version,omitempty"`

	// TraceEnabled acknowledges a {"trace":...} control request.
	TraceEnabled *bool `json:"trace_enabled,omitempty"`
	// TraceID names the retained trace for a decision served while
	// tracing is on; fetch it later from the debug listener.
	TraceID string `json:"trace_id,omitempty"`
	// Trace inlines the full stage breakdown when the request forced a
	// per-decision trace with "trace":true.
	Trace *trace.Trace `json:"trace,omitempty"`

	Health *healthInfo `json:"health,omitempty"`

	Counters  map[string]uint64         `json:"counters,omitempty"`
	Gauges    map[string]int64          `json:"gauges,omitempty"`
	Latencies map[string]latencySummary `json:"latencies,omitempty"`
}

// speakerEcho is the per-speaker attribution on a stream line: the
// tracker-assigned identity, how many utterances it has produced, and
// its cross-utterance mean facing margin (zero until an orientation
// gate has run for this speaker).
type speakerEcho struct {
	ID         string  `json:"id"`
	Utterances int     `json:"utterances"`
	MeanFacing float64 `json:"mean_facing"`
}

// arrayResult is one array's line item inside a fused response.
type arrayResult struct {
	ID          string   `json:"id"`
	Accepted    *bool    `json:"accepted,omitempty"`
	ReasonSlug  string   `json:"reason_slug,omitempty"`
	LiveScore   *float64 `json:"live_score,omitempty"`
	FacingScore *float64 `json:"facing_score,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// healthInfo is the body of a health line: one tenant's serving
// fitness plus its privacy mode.
type healthInfo struct {
	Tenant              string `json:"tenant,omitempty"`
	State               string `json:"state"`
	Healthy             bool   `json:"healthy"`
	Mode                string `json:"mode"`
	Workers             int    `json:"workers"`
	QueueDepth          int    `json:"queue_depth"`
	QueueCapacity       int    `json:"queue_capacity"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Panics              uint64 `json:"panics"`
	Submitted           uint64 `json:"submitted"`
	Completed           uint64 `json:"completed"`
	BreakerRejected     uint64 `json:"breaker_rejected"`
}

// latencySummary renders one histogram for the metrics line.
type latencySummary struct {
	Count  uint64 `json:"count"`
	MeanUS int64  `json:"mean_us"`
	P50US  int64  `json:"p50_us"`
	P90US  int64  `json:"p90_us"`
	P99US  int64  `json:"p99_us"`
	MaxUS  int64  `json:"max_us"`
}

func metricsResponse(s metrics.Snapshot) response {
	resp := response{
		Type:      "metrics",
		Counters:  s.Counters,
		Gauges:    s.Gauges,
		Latencies: make(map[string]latencySummary, len(s.Histograms)),
	}
	us := func(sec float64) int64 { return int64(sec * 1e6) }
	for name, h := range s.Histograms {
		resp.Latencies[name] = latencySummary{
			Count:  h.Count,
			MeanUS: us(h.Mean()),
			P50US:  us(h.Quantile(0.5)),
			P90US:  us(h.Quantile(0.9)),
			P99US:  us(h.Quantile(0.99)),
			MaxUS:  us(h.Max),
		}
	}
	return resp
}

// decisionResponse renders one decision line; callers add the fields
// of their serving path (timings, trace, forwarded).
func decisionResponse(id, tenant string, dec core.Decision) response {
	resp := response{
		Type:       "decision",
		ID:         id,
		Tenant:     tenant,
		Accepted:   &dec.Accepted,
		Reason:     string(dec.Reason),
		ReasonSlug: dec.Reason.Slug(),
	}
	if dec.LiveRan {
		resp.LiveScore = &dec.LiveScore
	}
	if dec.FacingRan {
		resp.FacingScore = &dec.FacingScore
	}
	return resp
}

// streamResponse renders the stream line for one frames push.
func streamResponse(id, tenant, sid string, res *stream.PushResult) response {
	resp := response{Type: "stream", ID: id, Tenant: tenant, Session: sid, Status: res.Status.String()}
	switch res.Status {
	case stream.StatusNoWake, stream.StatusSpotted, stream.StatusDecided:
		score := res.SpotScore
		resp.SpotScore = &score
	}
	if spk := res.Speaker; spk != nil {
		resp.Speaker = &speakerEcho{ID: spk.ID, Utterances: spk.Utterances, MeanFacing: spk.MeanFacing}
	}
	if dec := res.Decision; dec != nil {
		resp.Accepted = &dec.Accepted
		resp.Reason = string(dec.Reason)
		resp.ReasonSlug = dec.Reason.Slug()
	}
	return resp
}

// sessionID names the streaming session a frames or end_session
// request acts on.
func (r *request) sessionID() string {
	if r.Session == "" {
		return defaultSessionID
	}
	return r.Session
}

// verb is one kind of request line: the fields that name it, the
// protocol version that introduced it, and how it is served. Exactly
// one of node and local is set.
type verb struct {
	// fields names the request fields that select the verb, as a
	// version error quotes them.
	fields string
	// since is the protocol version that introduced the verb.
	since int
	// uses reports whether a request names the verb.
	uses func(*request) bool
	// node serves a verb that acts on this daemon itself (its pool or
	// its federation membership), not on one tenant: it runs before
	// tenant lookup and is never forwarded.
	node func(d *daemon, req request, lw *lineWriter)
	// local serves the verb for a tenant this daemon hosts.
	local func(d *daemon, req request, t *pool.Tenant, lw *lineWriter)
	// forward serves it for a tenant a federation peer owns. Nil marks
	// a verb only the owner serves: a non-owner refuses it.
	forward func(d *daemon, req request, lw *lineWriter)
}

// verbs is the protocol's verb set in dispatch order: a request is
// served by the first entry it names. The last entry, a decision on a
// wav or condition, names every request, so each line has exactly one
// verb.
var verbs = []verb{
	{fields: "restore/join/leave", since: 3,
		uses: func(r *request) bool { return r.Restore != nil || r.Join != nil || r.Leave != "" },
		node: (*daemon).handleCluster},
	{fields: "health", since: 1,
		uses:  func(r *request) bool { return r.Health },
		local: (*daemon).handleHealth},
	{fields: "snapshot", since: 3,
		uses:    func(r *request) bool { return r.Snapshot },
		local:   (*daemon).handleSnapshot,
		forward: (*daemon).forwardSnapshot},
	{fields: "model_status/promote/rollback", since: 5,
		uses:  func(r *request) bool { return r.ModelStatus || r.Promote != nil || r.Rollback != "" },
		local: (*daemon).handleModels},
	{fields: "frames/end_session", since: 2,
		uses:    func(r *request) bool { return r.Frames != nil || r.EndSession },
		local:   (*daemon).handleStream,
		forward: (*daemon).forwardStream},
	// The peer wire has no fused op, so a fused line for a peer-owned
	// tenant is refused rather than served as some other request.
	{fields: "arrays", since: 4,
		uses:  func(r *request) bool { return len(r.Arrays) > 0 },
		local: (*daemon).handleFused},
	// A bare {"trace":...} toggles store-wide tracing; beside a wav or
	// condition it forces one decision's trace instead.
	{fields: "trace", since: 1,
		uses:  func(r *request) bool { return r.Trace != nil && r.WAV == "" && r.Condition == nil && r.Mode == "" },
		local: (*daemon).handleTrace},
	{fields: "mode", since: 1,
		uses:  func(r *request) bool { return r.Mode != "" },
		local: (*daemon).handleMode},
	{fields: "wav/condition", since: 1,
		uses:    func(*request) bool { return true },
		local:   (*daemon).handleDecide,
		forward: (*daemon).forwardDecide},
}

// decodeRequest decodes one request line into req and names its verb,
// or returns the error line to answer instead. Frames pushes take the
// one-pass decoder; every other line, and any frames line it declines,
// takes encoding/json. The version gate then checks every verb the
// request names, so a v1 line carrying frames is unsupported_version
// whatever else it carries.
func decodeRequest(line []byte, frames *framesDecoder, req *request) (*verb, *response) {
	if !frames.decode(line, req) {
		if err := json.Unmarshal(line, req); err != nil {
			return nil, &response{Type: "error", Error: fmt.Sprintf("bad request: %v", err), ErrorKind: "parse"}
		}
	}
	v := 1
	if req.V != nil {
		v = *req.V
	}
	if v < 1 || v > protocolVersion {
		return nil, &response{
			Type:      "error",
			ID:        req.ID,
			Error:     fmt.Sprintf("unsupported protocol version %d (supported: 1..%d)", v, protocolVersion),
			ErrorKind: "unsupported_version",
		}
	}
	var named *verb
	for i := range verbs {
		vb := &verbs[i]
		if !vb.uses(req) {
			continue
		}
		if v < vb.since {
			return nil, &response{
				Type:      "error",
				ID:        req.ID,
				Error:     fmt.Sprintf("%s require protocol version %d (request is version %d)", vb.fields, vb.since, v),
				ErrorKind: "unsupported_version",
			}
		}
		if named == nil {
			named = vb
		}
	}
	return named, nil
}
