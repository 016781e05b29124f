package core

// Tests for per-decision tracing through the core pipeline: every
// stage that runs gets a span, the spans sum to the trace total, and
// the trace carries the channel plan, gate scores and outcome.

import (
	"context"
	"testing"
	"time"

	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/registry"
	"headtalk/internal/trace"
)

func TestTraceSpansCoverPipeline(t *testing.T) {
	featCfg := features.DefaultConfig(13, 48000)
	sys, err := NewSystem(Config{
		Features: featCfg,
		Models:   registry.NewStatic(registry.ModelSet{Orientation: trainedOrientation(t, featCfg)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(ModeHeadTalk)

	r := trace.NewRecorder("core-1")
	ctx := trace.NewContext(context.Background(), r)
	d, err := sys.ProcessWake(ctx, markedRecording(true, 11))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted {
		t.Fatalf("decision %+v, want accept", d)
	}
	tr := r.Finish()

	// Every stage that ran must have a span (no liveness detector is
	// configured, so no liveness span), and StageDecide absorbs the
	// remainder so the table sums to the total.
	for _, stage := range []trace.Stage{
		trace.StageValidate, trace.StageChannelPlan, trace.StagePreprocess,
		trace.StageOrientation, trace.StageDecide,
	} {
		if !hasSpan(tr, stage) {
			t.Fatalf("stage %s missing from trace: %+v", stage, tr.Spans())
		}
	}
	if hasSpan(tr, trace.StageLiveness) {
		t.Fatal("liveness span recorded with no liveness gate configured")
	}
	var sum time.Duration
	for _, sp := range tr.Spans() {
		sum += sp.Duration
	}
	if sum != tr.Total || tr.Total <= 0 {
		t.Fatalf("spans sum %v != total %v", sum, tr.Total)
	}
	if !tr.Accepted || tr.Reason != "accepted" || tr.Mode != "headtalk" {
		t.Fatalf("trace outcome %+v", tr)
	}
	if !tr.FacingRan || tr.FacingScore != d.FacingScore {
		t.Fatalf("trace gate scores %+v vs decision %+v", tr, d)
	}
	if len(tr.PlanChannels) != 4 {
		t.Fatalf("trace channel plan %v, want the 4-channel array", tr.PlanChannels)
	}
}

func TestTraceBadInputOutcome(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := trace.NewRecorder("core-2")
	ctx := trace.NewContext(context.Background(), r)
	if _, err := sys.ProcessWake(ctx, nil); err == nil {
		t.Fatal("nil recording accepted")
	}
	tr := r.Finish()
	if tr.Accepted || tr.Reason != "bad_input" {
		t.Fatalf("trace outcome %+v, want bad_input reject", tr)
	}
	if !hasSpan(tr, trace.StageValidate) {
		t.Fatal("validate span missing on the reject path")
	}
}

// TestUntracedProcessWakeUnchanged pins that the tracing hooks are
// inert without a recorder: decisions and their counters behave
// exactly as before.
func TestUntracedProcessWakeUnchanged(t *testing.T) {
	reg := metrics.NewRegistry()
	sys, err := NewSystem(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.ProcessWake(context.Background(), markedRecording(true, 12))
	if err != nil || !d.Accepted || d.Reason != ReasonNormalMode {
		t.Fatalf("untraced decision %+v, %v", d, err)
	}
	if n := reg.Counter("headtalk.decisions.total").Value(); n != 1 {
		t.Fatalf("%d decisions counted, want 1", n)
	}
}

// hasSpan reports whether tr recorded stage s.
func hasSpan(tr *trace.Trace, s trace.Stage) bool {
	for _, sp := range tr.Spans() {
		if sp.Stage == s {
			return true
		}
	}
	return false
}
