package serve

import (
	"context"
	"fmt"
	"sync"

	"headtalk/internal/audio"
	"headtalk/internal/fusion"
)

// ArrayInput is one array's capture of the same utterance for a fused
// room-level decision.
type ArrayInput struct {
	// ArrayID names the device ("kitchen", "tv-left", ...); empty IDs
	// get positional names ("array-0").
	ArrayID string
	// Recording is the array's multi-channel capture.
	Recording *audio.Recording
	// Weight, when > 0, overrides the health-derived fusion weight.
	Weight float64
}

// DecideFused runs the decision pipeline once per array — through the
// engine's normal serving path (queue, breaker, tracing, metrics) — and
// fuses the per-array posteriors into one room-level accept/reject. A
// single failed array degrades the fusion (its report carries the
// error and contributes no evidence) rather than failing the room; the
// fused decision itself fails closed when no array produced usable
// evidence. The per-array reports are returned for attribution.
func (e *Engine) DecideFused(ctx context.Context, arrays []ArrayInput) (fusion.RoomDecision, []fusion.ArrayReport, error) {
	if len(arrays) == 0 {
		return fusion.RoomDecision{}, nil, fmt.Errorf("serve: fused decision needs at least one array")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	reports := make([]fusion.ArrayReport, len(arrays))
	var wg sync.WaitGroup
	for i := range arrays {
		in := &arrays[i]
		r := &reports[i]
		r.ArrayID = in.ArrayID
		if r.ArrayID == "" {
			r.ArrayID = fmt.Sprintf("array-%d", i)
		}
		r.Weight = in.Weight
		if in.Recording == nil {
			r.Err = fmt.Errorf("serve: array %q has no recording", r.ArrayID)
			continue
		}
		r.Channels = len(in.Recording.Channels)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Decision, r.Err = e.Decide(ctx, in.Recording)
		}()
	}
	wg.Wait()
	room := fusion.Fuse(reports)
	e.cfg.Metrics.Counter("serve.fused.total").Inc()
	if room.Accepted {
		e.cfg.Metrics.Counter("serve.fused.accepted").Inc()
	} else {
		e.cfg.Metrics.Counter("serve.fused.rejected").Inc()
	}
	e.cfg.Metrics.Counter("serve.fused.reason." + room.Reason.Slug()).Inc()
	return room, reports, nil
}
