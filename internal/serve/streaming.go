package serve

import (
	"context"
	"errors"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
)

// ErrNoStream is returned by the streaming methods of an engine built
// without Config.Streaming.
var ErrNoStream = errors.New("serve: streaming not configured")

// buildStreams attaches the continuous-listening front end configured
// by cfg.Streaming. The manager's Decide is wired into this engine's
// queue — a spotted candidate becomes an ordinary engine decision, so
// it obeys the same backpressure, breaker and tracing as whole-capture
// requests — and its Metrics and Clock default to the engine's own.
func (e *Engine) buildStreams() error {
	sc := *e.cfg.Streaming // copy: never mutate the caller's config
	if sc.Metrics == nil {
		sc.Metrics = e.cfg.Metrics
	}
	if sc.Clock == nil {
		sc.Clock = e.cfg.Clock
	}
	sc.Decide = e.streamDecide
	m, err := stream.NewManager(sc)
	if err != nil {
		return err
	}
	e.streams = m
	return nil
}

// streamDecide runs a spotted candidate window through the engine,
// first recording the streaming-side ingest and spot spans on the
// request's trace so a streamed decision's timeline starts at frame
// ingest, not at enqueue.
func (e *Engine) streamDecide(ctx context.Context, rec *audio.Recording, spans stream.SpanDurations) (core.Decision, error) {
	ctx = e.maybeTrace(ctx)
	tr := trace.FromContext(ctx)
	tr.Observe(trace.StageIngest, spans.Ingest)
	tr.Observe(trace.StageSpot, spans.Spot)
	return e.Decide(ctx, rec)
}

// PushFrames feeds one multichannel chunk into the named streaming
// session (created on first push) and runs the early-exit cascade: a
// chunk that fails validation, the energy floor or the wake-word
// spotter never enters the decision queue. Only a spotted candidate
// window reaches the pipeline, as a regular engine decision whose
// outcome rides back on the PushResult.
func (e *Engine) PushFrames(ctx context.Context, sessionID string, frame [][]float64) (stream.PushResult, error) {
	if e.streams == nil {
		return stream.PushResult{}, ErrNoStream
	}
	return e.streams.Push(ctx, sessionID, frame)
}

// EndSession removes one streaming session, reporting whether it
// existed. It errors only when streaming is not configured.
func (e *Engine) EndSession(sessionID string) (bool, error) {
	if e.streams == nil {
		return false, ErrNoStream
	}
	return e.streams.End(sessionID), nil
}

// closeStreams shuts the streaming front end down (idempotent,
// nil-safe). Called from Drain before waiting on workers so no new
// streamed candidates can chase a closing queue.
func (e *Engine) closeStreams() {
	if e.streams != nil {
		e.streams.Close()
	}
}
