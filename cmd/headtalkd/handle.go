package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"headtalk"
	"headtalk/internal/audio"
	"headtalk/internal/cluster"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/pool"
	"headtalk/internal/serve"
	"headtalk/internal/trace"
)

// lineWriter is one connection's response side. It serializes NDJSON
// writes from workers, forwards, the reader loop and the metrics
// ticker, and counts the responses still owed asynchronously.
type lineWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
	// pending counts decisions and forwards whose response a worker or
	// forward goroutine has yet to write.
	pending sync.WaitGroup
}

func (lw *lineWriter) write(resp response) {
	data, err := json.Marshal(resp)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"type":"error","error":%q}`, err.Error()))
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.w.Write(data)
	lw.w.WriteByte('\n')
	lw.w.Flush()
}

// ServeStream serves NDJSON requests from r, writing responses to w,
// until EOF. It waits for in-flight decisions before returning.
func (d *daemon) ServeStream(r io.Reader, w io.Writer) error {
	lw := &lineWriter{w: bufio.NewWriter(w)}

	stopMetrics := make(chan struct{})
	var tickerDone sync.WaitGroup
	if d.opts.MetricsEvery > 0 {
		tickerDone.Add(1)
		go func() {
			defer tickerDone.Done()
			t := time.NewTicker(d.opts.MetricsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					lw.write(metricsResponse(d.snapshot()))
				case <-stopMetrics:
					return
				}
			}
		}()
	}

	// A bufio.Scanner would die with ErrTooLong on the first oversized
	// line — one hostile request killing the whole connection (and, on
	// stdin, the daemon). cluster.ReadBoundedLine discards past-limit
	// lines so the stream reports them and keeps serving.
	br := bufio.NewReaderSize(r, 64*1024)
	var (
		readErr error
		line    []byte // reused for every line of the connection
		frames  framesDecoder
	)
	for {
		var err error
		line, err = cluster.ReadBoundedLine(br, line, maxRequestLine)
		if err == io.EOF {
			break
		}
		if errors.Is(err, cluster.ErrLineTooLong) {
			lw.write(response{
				Type:      "error",
				Error:     fmt.Sprintf("request line exceeds %d bytes; dropped", maxRequestLine),
				ErrorKind: "oversized",
			})
			continue
		}
		if err != nil {
			readErr = err
			break
		}
		if len(line) == 0 {
			continue
		}
		var req request
		v, refusal := decodeRequest(line, &frames, &req)
		if refusal != nil {
			lw.write(*refusal)
			continue
		}
		d.handle(v, req, lw)
	}
	lw.pending.Wait()
	close(stopMetrics)
	tickerDone.Wait()
	// A final summary so batch (stdin) runs always end with the tallies.
	if d.opts.MetricsEvery > 0 {
		lw.write(metricsResponse(d.snapshot()))
	}
	return readErr
}

// handle serves one decoded request by its verb: node verbs at once,
// tenant verbs on the tenant this daemon hosts, and, in a federation,
// forwardable verbs for a tenant a peer owns. Decision responses are
// written asynchronously from engine workers, forwards from their own
// goroutines.
func (d *daemon) handle(v *verb, req request, lw *lineWriter) {
	if v.node != nil {
		v.node(d, req, lw)
		return
	}
	t, err := d.tenant(req.Tenant)
	if err == nil {
		v.local(d, req, t, lw)
		return
	}
	if d.node == nil || !errors.Is(err, pool.ErrUnknownTenant) || req.Tenant == "" {
		lw.write(response{Type: "error", ID: req.ID, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
		return
	}
	// A federated daemon serves a tenant it does not host by forwarding
	// to the ring owner. Node-local verbs (mode, health, trace, the
	// model verbs) act on the owner's state, and the peer wire cannot
	// carry a fused multi-array line, so clients must address the
	// owning node directly.
	if v.forward == nil {
		lw.write(response{
			Type:      "error",
			ID:        req.ID,
			Tenant:    d.echoID(req.Tenant),
			Error:     fmt.Sprintf("tenant %q is owned by node %s; %s requests are not forwarded", req.Tenant, d.node.Owner(req.Tenant), v.fields),
			ErrorKind: "request",
		})
		return
	}
	v.forward(d, req, lw)
}

// handleHealth answers a tenant's health snapshot.
func (d *daemon) handleHealth(req request, t *pool.Tenant, lw *lineWriter) {
	lw.write(response{Type: "health", ID: req.ID, Tenant: d.echoTenant(t), Health: d.tenantHealth(t)})
}

// handleSnapshot captures the tenant's versioned, checksummed state
// envelope.
func (d *daemon) handleSnapshot(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	spec := d.spec(t.ID())
	env, err := cluster.CaptureTenant(t, spec.Device, spec.Room)
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
		return
	}
	lw.write(response{Type: "snapshot", ID: req.ID, Tenant: echo, Envelope: env})
}

// handleTrace flips the tenant's store-wide tracing for every
// subsequent decision.
func (d *daemon) handleTrace(req request, t *pool.Tenant, lw *lineWriter) {
	t.Traces().SetEnabled(*req.Trace)
	enabled := t.Traces().Enabled()
	lw.write(response{Type: "ok", ID: req.ID, Tenant: d.echoTenant(t), TraceEnabled: &enabled})
}

// handleMode switches the tenant's privacy mode.
func (d *daemon) handleMode(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	m, err := core.ParseMode(req.Mode)
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: "mode"})
		return
	}
	t.System().SetMode(m)
	lw.write(response{Type: "ok", ID: req.ID, Tenant: echo, Mode: m.String()})
}

// tenantHealth snapshots one tenant into a health body.
func (d *daemon) tenantHealth(t *pool.Tenant) *healthInfo {
	h := t.Health()
	info := &healthInfo{
		State:               h.State,
		Healthy:             h.Healthy,
		Mode:                t.System().Mode().String(),
		Workers:             h.Workers,
		QueueDepth:          h.QueueDepth,
		QueueCapacity:       h.QueueCapacity,
		Breaker:             h.Breaker,
		ConsecutiveFailures: h.ConsecutiveFailures,
		Panics:              h.Panics,
		Submitted:           h.Submitted,
		Completed:           h.Completed,
		BreakerRejected:     h.BreakerRejected,
	}
	if d.multiTenant {
		info.Tenant = t.ID()
	}
	return info
}

// echoTenant returns the tenant id for response echoing (multi-tenant
// daemons only).
func (d *daemon) echoTenant(t *pool.Tenant) string {
	if d.multiTenant {
		return t.ID()
	}
	return ""
}

// echoID returns a tenant id for response echoing on paths with no
// local *pool.Tenant (forwards, restores). Federated daemons always
// echo — tenant identity is what routing is about.
func (d *daemon) echoID(id string) string {
	if d.multiTenant || d.node != nil {
		return id
	}
	return ""
}

// loadRecording resolves a request into a microphone-array recording.
// kind classifies any failure for the error_kind field: "request" for
// malformed request shapes, "wav" for unreadable or unparsable WAV
// paths, "condition" for synthesis failures. Synthetic conditions
// default their device and room to the serving tenant's spec, so a
// D1 tenant's captures come off a D1 array unless the request says
// otherwise.
func (d *daemon) loadRecording(req request, spec tenantSpec) (rec *audio.Recording, kind string, err error) {
	switch {
	case req.WAV != "" && req.Condition != nil:
		return nil, "request", fmt.Errorf("request has both wav and condition")
	case req.WAV != "":
		f, err := os.Open(req.WAV)
		if err != nil {
			return nil, "wav", err
		}
		defer f.Close()
		rec, err = audio.ReadWAV(f)
		if err != nil {
			return nil, "wav", err
		}
		return rec, "", nil
	case req.Condition != nil:
		cond := *req.Condition
		if cond.Device == "" {
			cond.Device = spec.Device
		}
		if cond.Room == "" {
			cond.Room = spec.Room
		}
		d.genMu.Lock()
		defer d.genMu.Unlock()
		rec, err = dataset.CaptureRecording(d.gen, cond)
		if err != nil {
			return nil, "condition", err
		}
		return rec, "", nil
	default:
		return nil, "request", fmt.Errorf("request needs wav or condition")
	}
}

// handleDecide submits one decision on the request's wav or
// condition; the engine worker writes the response.
func (d *daemon) handleDecide(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	rec, kind, err := d.loadRecording(req, d.spec(t.ID()))
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: kind})
		return
	}
	ctx, cancel := d.requestContext()
	forceTrace := req.Trace != nil && *req.Trace
	if forceTrace {
		ctx = trace.NewContext(ctx, t.Traces().NewRecorder())
	}
	lw.pending.Add(1)
	_, err = t.Engine().Submit(ctx, serve.Request{
		ID:        req.ID,
		Recording: rec,
		Callback: func(res serve.Result) {
			defer lw.pending.Done()
			defer cancel()
			if res.Err != nil {
				resp := response{Type: "error", ID: res.ID, Tenant: echo, Error: res.Err.Error(), ErrorKind: cluster.ErrorKind(res.Err), TraceID: res.TraceID}
				if forceTrace {
					resp.Trace = res.Trace
				}
				// Fail-closed paths still carry a typed reject reason
				// (bad_input, panic, unhealthy) — surface it so clients
				// see the decision the error produced.
				if res.Decision.Reason != "" {
					resp.ReasonSlug = res.Decision.Reason.Slug()
				}
				lw.write(resp)
				return
			}
			resp := decisionResponse(res.ID, echo, res.Decision)
			resp.QueueWaitUS = res.QueueWait.Microseconds()
			resp.TotalUS = res.Total.Microseconds()
			resp.TraceID = res.TraceID
			if forceTrace {
				resp.Trace = res.Trace
			}
			lw.write(resp)
		},
	})
	if err != nil {
		// Submission rejected (backpressure or shutdown): the callback
		// will never fire.
		lw.pending.Done()
		cancel()
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
	}
}

// handleFused serves a protocol-v4 multi-array decision: every array's
// capture is resolved like a single-array request, the tenant's engine
// decides each through its normal serving path, and the fused
// room-level outcome plus the per-array breakdown is written as one
// "fused" line. Pushes run synchronously — the per-array decisions ride
// the engine's blocking Decide path concurrently.
func (d *daemon) handleFused(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	spec := d.spec(t.ID())
	inputs := make([]serve.ArrayInput, len(req.Arrays))
	for i, a := range req.Arrays {
		id := a.ID
		if id == "" {
			id = fmt.Sprintf("array-%d", i)
		}
		rec, kind, err := d.loadRecording(request{WAV: a.WAV, Condition: a.Condition}, spec)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: fmt.Sprintf("array %s: %v", id, err), ErrorKind: kind})
			return
		}
		inputs[i] = serve.ArrayInput{ArrayID: id, Recording: rec, Weight: a.Weight}
	}
	ctx, cancel := d.requestContext()
	defer cancel()
	room, reports, err := t.Engine().DecideFused(ctx, inputs)
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
		return
	}
	resp := response{
		Type:          "fused",
		ID:            req.ID,
		Tenant:        echo,
		Accepted:      &room.Accepted,
		Reason:        string(room.Reason),
		ReasonSlug:    room.Reason.Slug(),
		BestArray:     room.BestArray,
		ArraysUsed:    room.ArraysUsed,
		ArraysDropped: room.ArraysDropped,
	}
	if room.LiveRan {
		resp.LiveScore = &room.FusedLive
	}
	if room.FacingRan {
		resp.FacingScore = &room.FusedFacing
	}
	resp.Arrays = make([]arrayResult, len(reports))
	for i := range reports {
		r := &reports[i]
		ar := arrayResult{ID: r.ArrayID}
		if r.Err != nil {
			ar.Error = r.Err.Error()
		} else {
			acc := r.Decision.Accepted
			ar.Accepted = &acc
			ar.ReasonSlug = r.Decision.Reason.Slug()
			if r.Decision.LiveRan {
				ls := r.Decision.LiveScore
				ar.LiveScore = &ls
			}
			if r.Decision.FacingRan {
				fs := r.Decision.FacingScore
				ar.FacingScore = &fs
			}
		}
		resp.Arrays[i] = ar
	}
	lw.write(resp)
}

// handleStream serves protocol-v2 frames and end_session requests.
// Pushes run synchronously: the early-exit cascade answers most chunks
// in microseconds, and a spotted candidate rides the engine's normal
// submission path (queue, breaker, tracing) before the response line is
// written.
func (d *daemon) handleStream(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	sid := req.sessionID()
	if req.EndSession {
		ended, err := t.Engine().EndSession(sid)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
			return
		}
		lw.write(response{Type: "stream", ID: req.ID, Tenant: echo, Session: sid, Ended: &ended})
		return
	}

	ctx, cancel := d.requestContext()
	defer cancel()
	res, err := t.Engine().PushFrames(ctx, sid, req.Frames)
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
		return
	}
	if res.Err != nil {
		// The chunk was spotted but the decision pipeline failed
		// (backpressure, breaker, pipeline error): surface it as a typed
		// error so clients can retry or back off.
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Status: res.Status.String(), Error: res.Err.Error(), ErrorKind: cluster.ErrorKind(res.Err)})
		return
	}
	lw.write(streamResponse(req.ID, echo, sid, &res))
}

// handleModels serves the v5 model-lifecycle control verbs against the
// tenant's model registry: model_status (per-kind versions, lifecycle
// states, checksums, drift), promote (atomic hot-swap, no drain) and
// rollback (reactivate the previous version byte-for-byte). Like mode
// and health they act on node-local state and are never forwarded.
func (d *daemon) handleModels(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	reg := t.Models()
	if reg == nil {
		lw.write(response{
			Type:      "error",
			ID:        req.ID,
			Tenant:    echo,
			Error:     "tenant has no model registry (daemon started with -no-enroll?)",
			ErrorKind: "request",
		})
		return
	}
	if req.ModelStatus {
		drift := reg.DriftState()
		lw.write(response{
			Type:   "models",
			ID:     req.ID,
			Tenant: echo,
			Models: reg.Status(),
			Drift:  &drift,
		})
		return
	}
	name := req.Rollback
	if req.Promote != nil {
		name = req.Promote.Kind
	}
	kind := headtalk.ModelKind(name)
	switch kind {
	case headtalk.KindOrientation, headtalk.KindLiveness, headtalk.KindArrayFingerprint:
	default:
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: fmt.Sprintf("unknown model kind %q (want orientation|liveness|fingerprint)", name), ErrorKind: "request"})
		return
	}
	var version uint64
	var err error
	if req.Promote != nil {
		version = req.Promote.Version
		err = reg.Promote(kind, version)
	} else {
		version, err = reg.Rollback(kind)
	}
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: "request"})
		return
	}
	lw.write(response{Type: "ok", ID: req.ID, Tenant: echo, Kind: string(kind), Version: version})
}

// handleCluster serves the v3 federation control verbs: restore (this
// node, standalone or federated), join and leave (membership).
func (d *daemon) handleCluster(req request, lw *lineWriter) {
	if req.Restore != nil {
		echo := d.echoID(req.Restore.TenantID)
		ctx, cancel := d.requestContext()
		defer cancel()
		if err := d.restoreEnvelope(ctx, req.Restore); err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: cluster.ErrorKind(err)})
			return
		}
		lw.write(response{Type: "ok", ID: req.ID, Tenant: echo})
		return
	}
	if d.node == nil {
		lw.write(response{Type: "error", ID: req.ID, Error: "this daemon is not part of a federation (start with -node-id)", ErrorKind: "request"})
		return
	}
	var err error
	if req.Join != nil {
		err = d.node.Join(req.Join.Node, req.Join.Addr)
	} else {
		err = d.node.Leave(req.Leave)
	}
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Error: err.Error(), ErrorKind: "request"})
		return
	}
	lw.write(response{Type: "ok", ID: req.ID})
}

// goForward runs one forward to the ring owner on its own goroutine —
// never on a pool worker — so a slow or dead peer can only ever stall
// its own caller, not local serving capacity.
func (d *daemon) goForward(lw *lineWriter, forward func(ctx context.Context)) {
	lw.pending.Add(1)
	go func() {
		defer lw.pending.Done()
		ctx, cancel := d.requestContext()
		defer cancel()
		forward(ctx)
	}()
}

// forwardSnapshot fetches a peer-owned tenant's envelope from its
// owner.
func (d *daemon) forwardSnapshot(req request, lw *lineWriter) {
	echo := d.echoID(req.Tenant)
	d.goForward(lw, func(ctx context.Context) {
		env, err := d.node.Snapshot(ctx, req.Tenant)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: cluster.ErrorKind(err), Forwarded: true})
			return
		}
		lw.write(response{Type: "snapshot", ID: req.ID, Tenant: echo, Envelope: env, Forwarded: true})
	})
}

// forwardStream serves a frames push or end_session for a peer-owned
// tenant's session on its owner.
func (d *daemon) forwardStream(req request, lw *lineWriter) {
	echo := d.echoID(req.Tenant)
	sid := req.sessionID()
	// The forward runs after ServeStream has moved on to later lines,
	// so the frames leave the connection's reused decode buffer here.
	frames := copyFrames(req.Frames)
	d.goForward(lw, func(ctx context.Context) {
		if req.EndSession {
			ended, err := d.node.EndSession(ctx, req.Tenant, sid)
			if err != nil {
				lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: cluster.ErrorKind(err), Forwarded: true})
				return
			}
			lw.write(response{Type: "stream", ID: req.ID, Tenant: echo, Session: sid, Ended: &ended, Forwarded: true})
			return
		}
		res, err := d.node.PushFrames(ctx, req.Tenant, sid, frames)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: cluster.ErrorKind(err), Forwarded: true})
			return
		}
		resp := streamResponse(req.ID, echo, sid, &res)
		resp.Forwarded = true
		lw.write(resp)
	})
}

// forwardDecide serves a decision for a peer-owned tenant on its
// owner. The recording is resolved here (WAV paths and synth
// conditions are this node's resources) before the samples cross the
// wire.
func (d *daemon) forwardDecide(req request, lw *lineWriter) {
	echo := d.echoID(req.Tenant)
	rec, kind, err := d.loadRecording(req, tenantSpec{})
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: kind})
		return
	}
	d.goForward(lw, func(ctx context.Context) {
		start := time.Now()
		dec, err := d.node.Decide(ctx, req.Tenant, rec)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: cluster.ErrorKind(err), Forwarded: true})
			return
		}
		resp := decisionResponse(req.ID, echo, dec)
		resp.TotalUS = time.Since(start).Microseconds()
		resp.Forwarded = true
		lw.write(resp)
	})
}
