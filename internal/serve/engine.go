// Package serve turns the HeadTalk pipeline into a concurrent
// decision-serving engine: a pool of workers — each owning its own
// preprocessing state so the DSP hot path never contends on a lock —
// fed by a bounded submission queue with explicit backpressure and
// per-request deadlines. It is the layer a production deployment puts
// between the network (or capture loops) and core.System, where
// throughput, tail latency and graceful degradation are managed.
//
// Lifecycle: NewEngine → Start → {Submit | Decide}* → Drain/Close.
// Once a submission is accepted into the queue it is delivered exactly
// once — either a decision or the request's deadline error — even
// across Close. New submissions after Drain/Close fail with ErrClosed;
// submissions while the queue is full fail fast with ErrQueueFull so
// callers can shed load instead of piling up.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
)

// Sentinel errors returned by Submit/Decide.
var (
	// ErrQueueFull is the backpressure signal: the bounded submission
	// queue is at capacity. Callers should shed or retry with backoff.
	ErrQueueFull = errors.New("serve: submission queue full")
	// ErrClosed is returned once Drain or Close has begun.
	ErrClosed = errors.New("serve: engine closed")
	// ErrNotStarted is returned when submitting before Start.
	ErrNotStarted = errors.New("serve: engine not started")
	// ErrBreakerOpen is carried by Results while the circuit breaker
	// rejects fast: the pipeline has failed repeatedly and is assumed
	// unhealthy, so decisions fail closed without running it.
	ErrBreakerOpen = errors.New("serve: circuit breaker open, rejecting fast")
)

// ErrPipelinePanic is the typed error a Result carries when the
// decision pipeline panicked. The worker recovers the panic, rebuilds
// its preprocessing state and keeps serving — a panic costs one
// submission (delivered as a fail-closed reject), never a worker.
type ErrPipelinePanic struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements error.
func (e *ErrPipelinePanic) Error() string {
	return fmt.Sprintf("serve: pipeline panic: %v", e.Value)
}

// IsPanic reports whether err chains to an *ErrPipelinePanic.
func IsPanic(err error) bool {
	var pe *ErrPipelinePanic
	return errors.As(err, &pe)
}

// Config assembles an Engine.
type Config struct {
	// System is the HeadTalk controller decisions run against
	// (required).
	System *core.System
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueSize bounds the submission queue (default 64). When full,
	// Submit fails with ErrQueueFull; Decide blocks for space until
	// its context expires.
	QueueSize int
	// Metrics receives engine instrumentation (queue depth/wait,
	// decision latency, accept/reject/expired counts). Nil creates a
	// private registry; pass the same registry given to core.Config
	// to get engine and per-gate metrics in one place.
	Metrics *metrics.Registry
	// BreakerThreshold is the consecutive pipeline-failure count
	// (errors and panics; not bad input, deadline expiries or
	// backpressure) that trips the circuit breaker into reject-fast
	// (default 8; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the tripped breaker rejects fast
	// before letting one half-open probe through (default 5 s).
	BreakerCooldown time.Duration
	// Clock abstracts time for the breaker's cooldown (tests inject a
	// fake); nil uses time.Now.
	Clock func() time.Time
	// FaultHook, when non-nil, intercepts every recording just before
	// the pipeline runs and may return a replacement. It exists for
	// fault injection (internal/faultinject): chaos tests use it to
	// model corrupted frames, dropped channels, slow stages and induced
	// panics. A panic inside the hook is recovered exactly like a
	// pipeline panic. Leave nil in production.
	FaultHook func(*audio.Recording) *audio.Recording
	// Traces, when non-nil, retains per-decision stage traces. While
	// the store's switch is enabled, every Submit/Decide whose context
	// does not already carry a trace.Recorder gets one; finished traces
	// land in the store's rings, and Results carry the trace. A
	// caller-supplied recorder in the context (per-request tracing) is
	// honored and stored regardless of the switch. Nil disables tracing
	// entirely — the hot path then performs no clock reads or
	// allocations for it.
	Traces *trace.Store
	// Streaming, when non-nil, attaches a continuous-listening ingest
	// front end (internal/stream): per-session ring buffers fed by
	// PushFrames, an online wake-word spotter, and an early-exit
	// cascade that only enqueues spotted candidate windows as engine
	// decisions. The manager's Decide is wired to this engine (any
	// caller-set Decide is overridden); its Metrics and Clock default
	// to the engine's. Drain/Close also close the session manager.
	Streaming *stream.Config
}

// Request is one decision to serve.
type Request struct {
	// ID is echoed back on the Result for correlation.
	ID string
	// Recording is the wake-word utterance from the microphone array.
	Recording *audio.Recording
	// Callback, when non-nil, receives the Result from the worker
	// goroutine instead of a channel delivery. Callbacks must be
	// quick or hand off; they run on the worker.
	Callback func(Result)
}

// Result is the outcome of one served request.
type Result struct {
	ID       string
	Decision core.Decision
	// Err is non-nil when the pipeline failed or the request's
	// deadline expired while it was still queued.
	Err error
	// QueueWait is the time spent in the submission queue.
	QueueWait time.Duration
	// Total is queue wait plus pipeline time.
	Total time.Duration
	// TraceID and Trace carry the decision's stage trace when tracing
	// was active for this request (Config.Traces enabled, or a
	// recorder supplied via the submission context). The Trace is
	// finished and must not be mutated.
	TraceID string
	Trace   *trace.Trace
}

// task is a queued request with its delivery plumbing.
type task struct {
	req      Request
	ctx      context.Context
	enqueued time.Time
	out      chan Result // buffered(1); nil when req.Callback is set
}

// engine lifecycle states.
const (
	stateNew = iota
	stateRunning
	stateClosed // draining or drained; no new submissions
)

// Engine is a concurrent decision-serving engine. All methods are
// safe for concurrent use.
type Engine struct {
	cfg     Config
	queue   chan *task
	wg      sync.WaitGroup
	breaker *Breaker
	streams *stream.Manager

	// mu guards state. Submitters hold it shared (RLock) while
	// sending so close(queue) — taken under the exclusive lock —
	// can never race a send.
	mu    sync.RWMutex
	state int

	ins engineInstruments
}

// engineInstruments caches metric handles for the hot path.
type engineInstruments struct {
	submitted    *metrics.Counter
	completed    *metrics.Counter
	queueFull    *metrics.Counter
	closed       *metrics.Counter
	expired      *metrics.Counter
	failed       *metrics.Counter
	panics       *metrics.Counter
	breakerFast  *metrics.Counter
	queueDepth   *metrics.Gauge
	workers      *metrics.Gauge
	breakerState *metrics.Gauge
	queueWait    *metrics.Histogram
	decisionLat  *metrics.Histogram
}

// NewEngine validates cfg and returns an engine; call Start before
// submitting.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.System == nil {
		return nil, fmt.Errorf("serve: engine needs a core.System")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 8
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	r := cfg.Metrics
	e := &Engine{
		cfg:   cfg,
		state: stateNew,
		ins: engineInstruments{
			submitted:    r.Counter("serve.submitted.total"),
			completed:    r.Counter("serve.completed.total"),
			queueFull:    r.Counter("serve.rejected.queue_full"),
			closed:       r.Counter("serve.rejected.closed"),
			expired:      r.Counter("serve.expired.deadline"),
			failed:       r.Counter("serve.failed.pipeline"),
			panics:       r.Counter("serve.worker.panics.total"),
			breakerFast:  r.Counter("serve.breaker.rejected"),
			queueDepth:   r.Gauge("serve.queue.depth"),
			workers:      r.Gauge("serve.workers"),
			breakerState: r.Gauge("serve.breaker.state"),
			queueWait:    r.Histogram("serve.queue.wait", nil),
			decisionLat:  r.Histogram("serve.decision.latency", nil),
		},
	}
	e.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock, e.ins.breakerState)
	if cfg.Streaming != nil {
		if err := e.buildStreams(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Start launches the worker pool. It errors if the engine was already
// started or closed.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case stateRunning:
		return fmt.Errorf("serve: engine already started")
	case stateClosed:
		return ErrClosed
	}
	e.queue = make(chan *task, e.cfg.QueueSize)
	e.state = stateRunning
	e.ins.workers.Set(int64(e.cfg.Workers))
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return nil
}

// worker drains the queue with its own preprocessing state until the
// queue is closed by Drain/Close. Panics anywhere in the pipeline are
// recovered per task: the submission is delivered as a fail-closed
// reject carrying *ErrPipelinePanic, the preprocessor is rebuilt (its
// biquad state may be mid-update), and the worker keeps serving.
func (e *Engine) worker() {
	defer e.wg.Done()
	p := e.cfg.System.NewPreprocessor()
	for t := range e.queue {
		e.ins.queueDepth.Add(-1)
		wait := time.Since(t.enqueued)
		e.ins.queueWait.ObserveDuration(wait)
		tr := trace.FromContext(t.ctx)
		tr.Observe(trace.StageQueueWait, wait)
		pickup := tr.Begin()
		res := Result{ID: t.req.ID, QueueWait: wait}
		switch {
		case t.ctx.Err() != nil:
			// The deadline lapsed while the request sat in the queue;
			// don't burn pipeline time on a decision nobody waits for.
			res.Err = t.ctx.Err()
			e.ins.expired.Inc()
			tr.SetOutcome("", false, "expired")
		default:
			allowed, probe := e.breaker.Allow()
			if !allowed {
				// Breaker open: fail closed without touching the
				// pipeline.
				res.Decision = core.Decision{Accepted: false, Reason: core.ReasonUnhealthy}
				res.Err = ErrBreakerOpen
				e.ins.breakerFast.Inc()
				tr.SetOutcome("", false, core.ReasonUnhealthy.Slug())
				break
			}
			tr.End(trace.StagePickup, pickup)
			start := time.Now()
			d, err, panicked := e.runPipeline(t.ctx, p, t.req.Recording)
			res.Decision = d
			res.Err = err
			res.Total = wait + time.Since(start)
			e.ins.decisionLat.ObserveDuration(res.Total)
			if err != nil {
				e.ins.failed.Inc()
			}
			if panicked {
				// The panic may have interrupted the biquad cascade
				// mid-update; a fresh clone is cheap insurance.
				p = e.cfg.System.NewPreprocessor()
				tr.SetOutcome("", false, core.ReasonPanic.Slug())
			}
			e.breaker.Record(!breakerFailure(err), probe)
		}
		e.deliver(t, res)
	}
}

// deliver finishes a task's trace and hands its Result to the caller —
// callback or buffered channel — exactly once.
func (e *Engine) deliver(t *task, res Result) {
	if tr := trace.FromContext(t.ctx); tr != nil {
		ft := tr.Finish()
		res.TraceID = ft.ID
		res.Trace = ft
		e.cfg.Traces.Add(ft) // nil-safe: stores only when a store exists
	}
	e.ins.completed.Inc()
	if t.req.Callback != nil {
		t.req.Callback(res)
	} else {
		t.out <- res // buffered(1): never blocks, delivered once
	}
}

// runPipeline executes one decision with panic isolation. A recovered
// panic returns a fail-closed reject (ReasonPanic) and a typed
// *ErrPipelinePanic carrying the panic value and stack.
func (e *Engine) runPipeline(ctx context.Context, p *core.Preprocessor, rec *audio.Recording) (d core.Decision, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			d = core.Decision{Accepted: false, Reason: core.ReasonPanic}
			err = &ErrPipelinePanic{Value: r, Stack: string(debug.Stack())}
			panicked = true
			e.ins.panics.Inc()
		}
	}()
	if e.cfg.FaultHook != nil {
		rec = e.cfg.FaultHook(rec)
	}
	d, err = e.cfg.System.ProcessWakeWith(ctx, p, rec)
	return d, err, false
}

// breakerFailure reports whether a pipeline error indicates engine
// ill-health. Per-request input problems (typed bad-input rejections)
// don't count: a flood of malformed requests must not take the engine
// away from well-formed ones.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	if _, ok := audio.AsBadInput(err); ok {
		return false
	}
	return true
}

// Health is a point-in-time snapshot of the engine's serving fitness,
// suitable for a daemon's health endpoint or log line.
type Health struct {
	// State is the lifecycle state: "new", "running" or "closed".
	State string
	// Workers is the configured pool size.
	Workers int
	// QueueDepth and QueueCapacity describe the submission queue.
	QueueDepth    int
	QueueCapacity int
	// Breaker is the circuit-breaker position ("closed", "open",
	// "half_open") and ConsecutiveFailures its current failure streak.
	Breaker             string
	ConsecutiveFailures int
	// Counters since Start.
	Panics          uint64
	Submitted       uint64
	Completed       uint64
	BreakerRejected uint64
	// Healthy is true when the engine is running and the breaker is
	// closed — i.e. new submissions are being served normally.
	Healthy bool
}

// HealthSnapshot reports the engine's current serving fitness.
func (e *Engine) HealthSnapshot() Health {
	e.mu.RLock()
	state := e.state
	var depth int
	if e.queue != nil {
		depth = len(e.queue)
	}
	e.mu.RUnlock()
	bs, streak := e.breaker.Snapshot()
	h := Health{
		Workers:             e.cfg.Workers,
		QueueDepth:          depth,
		QueueCapacity:       e.cfg.QueueSize,
		Breaker:             bs.String(),
		ConsecutiveFailures: streak,
		Panics:              e.ins.panics.Value(),
		Submitted:           e.ins.submitted.Value(),
		Completed:           e.ins.completed.Value(),
		BreakerRejected:     e.ins.breakerFast.Value(),
	}
	switch state {
	case stateNew:
		h.State = "new"
	case stateRunning:
		h.State = "running"
	default:
		h.State = "closed"
	}
	h.Healthy = state == stateRunning && bs == BreakerClosed
	return h
}

// maybeTrace wraps ctx with a store-issued recorder when automatic
// tracing is on and the caller did not already supply one. With
// tracing off (nil store or switch off) this is two cheap checks and
// no allocation, keeping the untraced submit path unchanged.
func (e *Engine) maybeTrace(ctx context.Context) context.Context {
	if !e.cfg.Traces.Enabled() || trace.FromContext(ctx) != nil {
		return ctx
	}
	return trace.NewContext(ctx, e.cfg.Traces.NewRecorder())
}

// enqueue places a task on the queue. block selects Decide semantics
// (wait for space until ctx expires) versus Submit semantics (fail
// fast with ErrQueueFull).
func (e *Engine) enqueue(t *task, block bool) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	switch e.state {
	case stateNew:
		return ErrNotStarted
	case stateClosed:
		e.ins.closed.Inc()
		return ErrClosed
	}
	// Count the slot before sending so the depth gauge never dips
	// negative when a worker dequeues immediately.
	e.ins.queueDepth.Add(1)
	if block {
		select {
		case e.queue <- t:
		case <-t.ctx.Done():
			e.ins.queueDepth.Add(-1)
			return t.ctx.Err()
		}
	} else {
		select {
		case e.queue <- t:
		default:
			e.ins.queueDepth.Add(-1)
			e.ins.queueFull.Inc()
			return ErrQueueFull
		}
	}
	e.ins.submitted.Inc()
	return nil
}

// Submit enqueues a request asynchronously. With no Callback the
// returned channel receives exactly one Result; with a Callback the
// channel is nil and the callback fires instead. Submit never blocks:
// a full queue returns ErrQueueFull immediately (backpressure), a
// drained/closed engine returns ErrClosed. ctx bounds the request's
// time in queue: if it expires before a worker picks the request up,
// the Result carries ctx's error and the pipeline is skipped.
func (e *Engine) Submit(ctx context.Context, req Request) (<-chan Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Recording == nil {
		return nil, fmt.Errorf("serve: request %q has no recording", req.ID)
	}
	t := &task{req: req, ctx: e.maybeTrace(ctx), enqueued: time.Now()}
	if req.Callback == nil {
		t.out = make(chan Result, 1)
	}
	if err := e.enqueue(t, false); err != nil {
		return nil, err
	}
	return t.out, nil
}

// Decide is the blocking API: it enqueues (waiting for queue space if
// necessary), then waits for the decision. ctx bounds the whole wait.
func (e *Engine) Decide(ctx context.Context, rec *audio.Recording) (core.Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rec == nil {
		return core.Decision{}, fmt.Errorf("serve: nil recording")
	}
	t := &task{
		req:      Request{Recording: rec},
		ctx:      e.maybeTrace(ctx),
		enqueued: time.Now(),
		out:      make(chan Result, 1),
	}
	if err := e.enqueue(t, true); err != nil {
		return core.Decision{}, err
	}
	select {
	case res := <-t.out:
		return res.Decision, res.Err
	case <-ctx.Done():
		// The worker will still process and deliver into the buffered
		// channel; the caller just stopped waiting.
		return core.Decision{}, ctx.Err()
	}
}

// TripBreaker forces the circuit breaker open, as if the failure
// threshold had just been crossed: every subsequent decision fails
// closed with ErrBreakerOpen until the cooldown admits a half-open
// probe. It is an operational control — a
// pool or daemon uses it to put one tenant into reject-fast
// maintenance without touching the others. No-op when the breaker is
// disabled.
func (e *Engine) TripBreaker() { e.breaker.ForceOpen() }

// Drain stops accepting new submissions and waits for every queued
// and in-flight request to finish, bounded by ctx. Already-accepted
// requests are still delivered exactly once. Drain is idempotent;
// concurrent calls all wait for completion.
func (e *Engine) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	switch e.state {
	case stateNew:
		e.state = stateClosed
		e.mu.Unlock()
		e.closeStreams()
		return nil
	case stateRunning:
		e.state = stateClosed
		close(e.queue) // safe: submitters hold mu.RLock while sending
	}
	e.mu.Unlock()
	e.closeStreams()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with work in flight: %w", ctx.Err())
	}
}

// Close drains with no deadline: it finishes all in-flight work and
// releases the workers. Safe to call more than once.
func (e *Engine) Close() error { return e.Drain(context.Background()) }
