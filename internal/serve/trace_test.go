package serve

// Tests for engine-level tracing: store-driven auto-tracing on
// Submit/Decide, queue-wait/pickup spans, per-request forced tracing,
// and the guarantee that untraced requests carry no trace.

import (
	"context"
	"testing"

	"headtalk/internal/core"
	"headtalk/internal/trace"
)

// newTracedEngine builds a started Normal-mode engine with a trace
// store attached.
func newTracedEngine(t *testing.T, enabled bool) (*Engine, *trace.Store) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := trace.NewStore(16, trace.DefaultSlowThreshold)
	store.SetEnabled(enabled)
	eng, err := NewEngine(Config{System: sys, Workers: 1, QueueSize: 8, Traces: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng, store
}

func TestEngineAutoTracing(t *testing.T) {
	eng, store := newTracedEngine(t, true)
	ch, err := eng.Submit(context.Background(), Request{ID: "a", Recording: testRecording(1)})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.TraceID == "" || res.Trace == nil {
		t.Fatalf("result carries no trace: %+v", res)
	}
	tr := res.Trace
	if !hasSpan(tr, trace.StageQueueWait) {
		t.Fatalf("queue_wait span missing: %+v", tr.Spans())
	}
	if !hasSpan(tr, trace.StagePickup) {
		t.Fatalf("pickup span missing: %+v", tr.Spans())
	}
	if !hasSpan(tr, trace.StageValidate) {
		t.Fatalf("validate span missing: %+v", tr.Spans())
	}
	if tr.Reason != "normal_mode" || !tr.Accepted {
		t.Fatalf("trace outcome %+v", tr)
	}
	recent := store.Recent(0)
	if len(recent) != 1 || recent[0].ID != res.TraceID {
		t.Fatalf("store recent %+v, want the served trace", recent)
	}
}

func TestEngineTracingOffByDefault(t *testing.T) {
	eng, store := newTracedEngine(t, false)
	ch, err := eng.Submit(context.Background(), Request{ID: "b", Recording: testRecording(2)})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.TraceID != "" || res.Trace != nil {
		t.Fatalf("tracing-off result carries a trace: %+v", res)
	}
	if got := store.Recent(0); len(got) != 0 {
		t.Fatalf("store filled while disabled: %+v", got)
	}
}

// TestEngineForcedPerRequestTrace: a caller-supplied recorder is
// honored (and retained) even while the store switch is off.
func TestEngineForcedPerRequestTrace(t *testing.T) {
	eng, store := newTracedEngine(t, false)
	r := trace.NewRecorder("forced")
	ctx := trace.NewContext(context.Background(), r)
	ch, err := eng.Submit(ctx, Request{ID: "c", Recording: testRecording(3)})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.TraceID != "forced" || res.Trace == nil {
		t.Fatalf("forced trace not delivered: %+v", res)
	}
	recent := store.Recent(0)
	if len(recent) != 1 || recent[0].ID != "forced" {
		t.Fatalf("forced trace not retained: %+v", recent)
	}
}

func TestDecideTraced(t *testing.T) {
	eng, store := newTracedEngine(t, true)
	if _, err := eng.Decide(context.Background(), testRecording(4)); err != nil {
		t.Fatal(err)
	}
	recent := store.Recent(0)
	if len(recent) != 1 {
		t.Fatalf("Decide left %d traces, want 1", len(recent))
	}
	if !hasSpan(recent[0], trace.StageQueueWait) {
		t.Fatalf("queue_wait span missing: %+v", recent[0].Spans())
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
