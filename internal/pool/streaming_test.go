package pool

import (
	"context"
	"errors"
	"testing"

	"headtalk/internal/core"
	"headtalk/internal/serve"
	"headtalk/internal/speech"
	"headtalk/internal/stream"
	"headtalk/internal/va"
)

// streamingTenantConfig returns a TenantConfig template with the
// continuous ingest front end attached.
func streamingTenantConfig(t *testing.T, id string) TenantConfig {
	t.Helper()
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spotter, err := va.NewSpotter(speech.WordComputer, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return TenantConfig{
		ID:     id,
		System: sys,
		Streaming: &stream.Config{
			SampleRate:   48000,
			Channels:     2,
			Spotter:      spotter,
			JanitorEvery: -1,
		},
	}
}

// TestPoolStreamingPerTenant: each tenant gets its own session
// manager; sessions are scoped per tenant and surface in that tenant's
// prefixed metrics only.
func TestPoolStreamingPerTenant(t *testing.T) {
	p := New()
	defer p.Close()
	for _, id := range []string{"t1", "t2"} {
		if _, err := p.AddTenant(streamingTenantConfig(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	chunk := [][]float64{make([]float64, 480), make([]float64, 480)}
	// Same session ID on both tenants: two distinct sessions.
	for _, id := range []string{"t1", "t2"} {
		if _, err := p.PushFrames(context.Background(), id, "kitchen", chunk); err != nil {
			t.Fatal(err)
		}
	}
	t1, _ := p.Tenant("t1")
	t2, _ := p.Tenant("t2")
	if t1.Streams() == t2.Streams() {
		t.Fatal("tenants share a session manager")
	}
	if got := t1.Streams().Len(); got != 1 {
		t.Fatalf("t1 has %d sessions, want 1", got)
	}
	snap := p.Snapshot()
	for _, id := range []string{"t1", "t2"} {
		if got := snap.Gauges["tenant."+id+".stream.sessions.active"]; got != 1 {
			t.Fatalf("merged snapshot tenant.%s.stream.sessions.active=%d, want 1", id, got)
		}
	}
	// Ending t1's session leaves t2's alone.
	if ok, err := p.EndSession("t1", "kitchen"); err != nil || !ok {
		t.Fatalf("EndSession(t1) = %v, %v", ok, err)
	}
	if got := t1.Streams().Len(); got != 0 {
		t.Fatalf("t1 has %d sessions after end, want 0", got)
	}
	if got := t2.Streams().Len(); got != 1 {
		t.Fatalf("t2 has %d sessions after t1 end, want 1", got)
	}
}

// TestPoolStreamingRouting: unknown tenants fail, tenants without
// streaming fail with serve.ErrNoStream.
func TestPoolStreamingRouting(t *testing.T) {
	p := New()
	defer p.Close()
	chunk := [][]float64{make([]float64, 480), make([]float64, 480)}
	if _, err := p.PushFrames(context.Background(), "ghost", "s", chunk); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant = %v, want ErrUnknownTenant", err)
	}
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTenant(TenantConfig{ID: "plain", System: sys}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PushFrames(context.Background(), "plain", "s", chunk); !errors.Is(err, serve.ErrNoStream) {
		t.Fatalf("tenant without streaming = %v, want serve.ErrNoStream", err)
	}
	if _, err := p.EndSession("plain", "s"); !errors.Is(err, serve.ErrNoStream) {
		t.Fatalf("EndSession without streaming = %v, want serve.ErrNoStream", err)
	}
}
