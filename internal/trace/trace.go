// Package trace is a dependency-free, allocation-conscious
// per-decision tracing subsystem: the live, per-request version of the
// paper's §IV-B15 pipeline latency table. A Trace carries an ID plus
// one span per pipeline stage (validate → channel-plan → preprocess →
// liveness → orientation → decide, with queue-wait and worker-pickup
// spans when a decision is served through an engine, and ingest/spot
// spans when it arrived through the streaming path), the channel plan
// chosen for the decision, the per-gate scores, and the final reason.
//
// Recording is built around a *Recorder that is safe to use as a nil
// pointer: every method is a no-op on nil, so instrumented code calls
// the recorder unconditionally and pays nothing — not even a clock
// read, and never an allocation — when tracing is off. When tracing is
// on, span recording writes into fixed per-stage slots inside the
// Trace, so the hot path stays allocation-free there too; only the
// annotations (channel plan) may allocate.
//
// Recorders travel by context (NewContext / FromContext); the serving
// engine propagates them from Submit/Decide through to its workers. A
// Recorder must not be used from more than one goroutine at a time —
// the serving engine guarantees this by construction (the submitter
// creates it, exactly one worker uses and finishes it).
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Stage identifies one pipeline stage of a decision. Stages are
// ordered as the pipeline runs them.
type Stage int

// Pipeline stages.
const (
	// StageIngest is the streaming ingest work that preceded a
	// streamed decision: ring-buffer pushes, frame validation and the
	// energy gate, accumulated across every PushFrames call since the
	// previous candidate.
	StageIngest Stage = iota
	// StageSpot is the online wake-word spotting work that preceded a
	// streamed decision: hop framing, one spectrum per hop and
	// sliding-window template scoring, accumulated like StageIngest.
	StageSpot
	// StageForward is the cross-node round trip for a decision the
	// local node did not own: serialization, the pooled-client network
	// exchange (including any retries and the hedged attempt) and
	// response decoding. It replaces the local pipeline stages when a
	// request is served by a federation peer.
	StageForward
	// StageQueueWait is the time a served request spent in the
	// submission queue before a worker dequeued it.
	StageQueueWait
	// StagePickup is the worker's dispatch overhead between dequeuing
	// the request and starting the pipeline (breaker check, plumbing).
	StagePickup
	// StageValidate is the input-hardening stage (audio.Validate).
	StageValidate
	// StageChannelPlan is the degraded-array policy: per-channel health
	// scoring and healthy-spare substitution.
	StageChannelPlan
	// StagePreprocess is the Butterworth band-pass stage.
	StagePreprocess
	// StageLiveness is the human-vs-mechanical gate.
	StageLiveness
	// StageFingerprint is the array-fingerprint liveness gate (the
	// enrolled array-signature check of the fused ensemble).
	StageFingerprint
	// StageOrientation is the facing/non-facing gate (GCC-PHAT feature
	// extraction plus SVM scoring).
	StageOrientation
	// StageDecide is the decision bookkeeping remainder: mode dispatch,
	// session handling, and any wall time not attributed to an explicit
	// stage. It is computed at Finish so a trace's stage
	// durations always sum to its total.
	StageDecide

	numStages
)

// String returns the stage's machine-friendly name.
func (s Stage) String() string {
	switch s {
	case StageIngest:
		return "ingest"
	case StageSpot:
		return "spot"
	case StageForward:
		return "forward"
	case StageQueueWait:
		return "queue_wait"
	case StagePickup:
		return "pickup"
	case StageValidate:
		return "validate"
	case StageChannelPlan:
		return "channel_plan"
	case StagePreprocess:
		return "preprocess"
	case StageLiveness:
		return "liveness"
	case StageFingerprint:
		return "fingerprint"
	case StageOrientation:
		return "orientation"
	case StageDecide:
		return "decide"
	default:
		return "unknown"
	}
}

// Span is one recorded stage duration.
type Span struct {
	Stage    Stage
	Duration time.Duration
}

// MarshalJSON renders the span with a readable stage name and
// microsecond duration.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Stage string `json:"stage"`
		DurUS int64  `json:"dur_us"`
	}{s.Stage.String(), s.Duration.Microseconds()})
}

// Trace is the finished record of one decision. Span durations live in
// fixed per-stage slots so recording never allocates; Spans() assembles
// the ordered view.
type Trace struct {
	// ID correlates the trace with the decision response that carried
	// it.
	ID string
	// Start is when the recorder was created (submission time for
	// served decisions).
	Start time.Time
	// Total is the wall time from Start to Finish. The per-stage
	// durations sum to Total (StageDecide absorbs the remainder).
	Total time.Duration
	// Mode, Accepted and Reason mirror the decision outcome (Reason is
	// the core.Reason slug).
	Mode     string
	Accepted bool
	Reason   string
	// Gate scores, valid when the matching gate ran.
	LiveScore   float64
	LiveRan     bool
	FacingScore float64
	FacingRan   bool
	// PlanChannels is the channel set the degraded-array policy chose
	// for the orientation gate (nil = all channels); PlanDegraded
	// counts channels the health check distrusted.
	PlanChannels []int
	PlanDegraded int

	durs [numStages]time.Duration
	has  [numStages]bool
}

// Spans returns the recorded spans in pipeline order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, 0, numStages)
	for i := Stage(0); i < numStages; i++ {
		if t.has[i] {
			out = append(out, Span{Stage: i, Duration: t.durs[i]})
		}
	}
	return out
}

// MarshalJSON renders the trace for the debug endpoints and inline
// decision responses: microsecond durations, readable stage names.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	w := struct {
		ID           string    `json:"id"`
		Start        time.Time `json:"start"`
		TotalUS      int64     `json:"total_us"`
		Mode         string    `json:"mode,omitempty"`
		Accepted     bool      `json:"accepted"`
		Reason       string    `json:"reason,omitempty"`
		LiveScore    *float64  `json:"live_score,omitempty"`
		FacingScore  *float64  `json:"facing_score,omitempty"`
		PlanChannels []int     `json:"plan_channels,omitempty"`
		PlanDegraded int       `json:"plan_degraded,omitempty"`
		Spans        []Span    `json:"spans"`
	}{
		ID:           t.ID,
		Start:        t.Start,
		TotalUS:      t.Total.Microseconds(),
		Mode:         t.Mode,
		Accepted:     t.Accepted,
		Reason:       t.Reason,
		PlanChannels: t.PlanChannels,
		PlanDegraded: t.PlanDegraded,
		Spans:        t.Spans(),
	}
	if t.LiveRan {
		w.LiveScore = &t.LiveScore
	}
	if t.FacingRan {
		w.FacingScore = &t.FacingScore
	}
	return json.Marshal(w)
}

// WriteTable renders the trace as the paper's §IV-B15 per-stage
// latency table: one row per recorded stage with its share of the
// total, then the total itself.
func (t *Trace) WriteTable(w io.Writer) error {
	if t == nil {
		return nil
	}
	if t.ID != "" {
		if _, err := fmt.Fprintf(w, "trace %s  (%s)\n", t.ID, t.Reason); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-14s %12s %8s\n", "stage", "duration", "share"); err != nil {
		return err
	}
	for _, sp := range t.Spans() {
		share := 0.0
		if t.Total > 0 {
			share = 100 * float64(sp.Duration) / float64(t.Total)
		}
		if _, err := fmt.Fprintf(w, "%-14s %12s %7.1f%%\n",
			sp.Stage, formatDuration(sp.Duration), share); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-14s %12s %7.1f%%\n", "total", formatDuration(t.Total), 100.0)
	return err
}

// formatDuration renders with µs/ms/s resolution matched to magnitude.
func formatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Recorder accumulates one decision's trace. The zero of *Recorder —
// nil — is the "tracing off" recorder: every method is a cheap no-op
// that performs no clock reads and no allocations, so instrumented
// code never branches on a tracing flag.
type Recorder struct {
	t        Trace
	clock    func() time.Time
	finished bool
}

// NewRecorder starts a recorder (and its trace clock) now.
func NewRecorder(id string) *Recorder { return NewRecorderClock(id, time.Now) }

// NewRecorderClock is NewRecorder with an injected clock (tests).
func NewRecorderClock(id string, clock func() time.Time) *Recorder {
	if clock == nil {
		clock = time.Now
	}
	return &Recorder{t: Trace{ID: id, Start: clock()}, clock: clock}
}

// Begin returns the current time for a later End call. On a nil
// recorder it returns the zero time without reading the clock.
func (r *Recorder) Begin() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.clock()
}

// End records stage s as having run from start to now. Successive
// recordings of the same stage accumulate.
func (r *Recorder) End(s Stage, start time.Time) {
	if r == nil {
		return
	}
	r.Observe(s, r.clock().Sub(start))
}

// Observe records an externally measured duration for stage s.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil || s < 0 || s >= numStages {
		return
	}
	if d < 0 {
		d = 0
	}
	r.t.durs[s] += d
	r.t.has[s] = true
}

// SetPlan annotates the trace with the decision's channel plan.
func (r *Recorder) SetPlan(active []int, degraded int) {
	if r == nil {
		return
	}
	if len(active) > 0 {
		r.t.PlanChannels = append(r.t.PlanChannels[:0], active...)
	}
	r.t.PlanDegraded = degraded
}

// SetGates annotates the trace with the per-gate scores.
func (r *Recorder) SetGates(liveScore float64, liveRan bool, facingScore float64, facingRan bool) {
	if r == nil {
		return
	}
	r.t.LiveScore, r.t.LiveRan = liveScore, liveRan
	r.t.FacingScore, r.t.FacingRan = facingScore, facingRan
}

// SetOutcome annotates the trace with the decision outcome. Later
// calls overwrite earlier ones, so wrappers (the serving engine) may
// refine the outcome a panic or expiry produced.
func (r *Recorder) SetOutcome(mode string, accepted bool, reason string) {
	if r == nil {
		return
	}
	r.t.Mode, r.t.Accepted, r.t.Reason = mode, accepted, reason
}

// Finish seals the trace: Total is set to the wall time since Start
// and StageDecide absorbs whatever Total the explicit stages did not
// account for, so the stage durations always sum to Total. Finish is
// idempotent and returns the finished trace (nil on a nil recorder).
// The returned trace must not be mutated further.
func (r *Recorder) Finish() *Trace {
	if r == nil {
		return nil
	}
	if !r.finished {
		r.finished = true
		r.t.Total = r.clock().Sub(r.t.Start)
		if r.t.Total < 0 {
			r.t.Total = 0
		}
		var attributed time.Duration
		for i := range r.t.durs {
			if r.t.has[i] {
				attributed += r.t.durs[i]
			}
		}
		if rem := r.t.Total - attributed; rem > 0 {
			r.t.durs[StageDecide] += rem
			r.t.has[StageDecide] = true
		}
	}
	return &r.t
}

// ctxKey is the context key carrying a *Recorder. A zero-size key type
// keeps NewContext/FromContext allocation-free on the lookup side.
type ctxKey struct{}

// NewContext returns ctx carrying r. A nil recorder returns ctx
// unchanged so "tracing off" contexts stay untouched.
func NewContext(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder carried by ctx, or nil — and nil is
// a fully usable no-op Recorder, so callers never need to branch.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}
