package serve

import (
	"context"
	"testing"

	"headtalk/internal/core"
	"headtalk/internal/metrics"
)

func TestDecideFusedRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, _ := newTestEngine(t, 2, 8, reg)

	room, reports, err := eng.DecideFused(context.Background(), []ArrayInput{
		{ArrayID: "kitchen", Recording: testRecording(1)},
		{ArrayID: "livingroom", Recording: testRecording(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Normal mode accepts without gates; the policy outcome is
	// room-level.
	if !room.Accepted || room.Reason != core.ReasonNormalMode {
		t.Fatalf("fused: %+v", room)
	}
	if len(reports) != 2 {
		t.Fatalf("%d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Errorf("array %s: %v", r.ArrayID, r.Err)
		}
		if r.Channels != 4 {
			t.Errorf("array %s: %d channels recorded", r.ArrayID, r.Channels)
		}
	}
	if got := reg.Counter("serve.fused.total").Value(); got != 1 {
		t.Errorf("serve.fused.total = %d", got)
	}
	if got := reg.Counter("serve.fused.accepted").Value(); got != 1 {
		t.Errorf("serve.fused.accepted = %d", got)
	}
}

func TestDecideFusedPartialFailure(t *testing.T) {
	eng, _ := newTestEngine(t, 2, 8, nil)

	// One array has no recording: its report carries the error, the
	// other array still decides, and the room-level call succeeds.
	room, reports, err := eng.DecideFused(context.Background(), []ArrayInput{
		{ArrayID: "ok", Recording: testRecording(3)},
		{ArrayID: "broken"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !room.Accepted {
		t.Fatalf("fused: %+v", room)
	}
	if reports[1].Err == nil {
		t.Error("missing-recording array should carry an error")
	}

	if _, _, err := eng.DecideFused(context.Background(), nil); err == nil {
		t.Error("fused decision over zero arrays should fail")
	}
}
