package pool

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/serve"
)

// TestTenantIsolationUnderFault is the pool's core guarantee, asserted
// under active fault injection: with tenant A's breaker forced open
// AND its queue saturated behind a stalled worker, tenant B's requests
// keep succeeding, its queue-wait p99 stays bounded, and none of A's
// rejections show up in B's instruments.
func TestTenantIsolationUnderFault(t *testing.T) {
	sysA, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	defer close(release) // unstick A's worker before pool cleanup drains it

	p := New()
	t.Cleanup(func() { _ = p.Close() })
	if _, err := p.AddTenant(TenantConfig{
		ID: "faulty", System: sysA, Workers: 1, QueueSize: 2,
		// The hook stalls A's only worker until the test releases it,
		// pinning work in flight so the queue can be saturated.
		FaultHook: func(rec *audio.Recording) *audio.Recording {
			entered <- struct{}{}
			<-release
			return rec
		},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTenant(testTenantConfig(t, "healthy")); err != nil {
		t.Fatal(err)
	}

	// Stall A's worker: submit one request and wait for the hook.
	if _, err := p.Submit(context.Background(), "faulty", serve.Request{ID: "stall", Recording: testRecording(1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the fault hook")
	}

	// Saturate A's queue until backpressure trips.
	sawFull := false
	for i := 0; i < 10 && !sawFull; i++ {
		_, err := p.Submit(context.Background(), "faulty", serve.Request{ID: "fill-" + strconv.Itoa(i), Recording: testRecording(uint64(i + 2))})
		sawFull = errors.Is(err, serve.ErrQueueFull)
	}
	if !sawFull {
		t.Fatal("never saw ErrQueueFull while saturating tenant A")
	}

	// Force A's breaker open on top: both failure modes at once.
	faulty, _ := p.Tenant("faulty")
	faulty.Engine().TripBreaker()
	if h := faulty.Health(); h.Breaker != "open" || h.QueueDepth != h.QueueCapacity {
		t.Fatalf("tenant A not in the intended fault state: %+v", h)
	}

	// A keeps rejecting...
	if _, err := p.Submit(context.Background(), "faulty", serve.Request{ID: "x", Recording: testRecording(50)}); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("tenant A submit = %v, want ErrQueueFull", err)
	}

	// ...while every one of B's requests succeeds.
	const n = 50
	for i := 0; i < n; i++ {
		d, err := p.Decide(context.Background(), "healthy", testRecording(uint64(100+i)))
		if err != nil {
			t.Fatalf("tenant B decide %d: %v", i, err)
		}
		if !d.Accepted {
			t.Fatalf("tenant B decision %d: %+v", i, d)
		}
	}

	healthy, _ := p.Tenant("healthy")
	if h := healthy.Health(); !h.Healthy || h.Completed != n {
		t.Fatalf("tenant B health %+v, want healthy with %d completed", h, n)
	}
	snap := healthy.Metrics().Snapshot()
	if snap.Counters["serve.rejected.queue_full"] != 0 || snap.Counters["serve.breaker.rejected"] != 0 {
		t.Fatalf("tenant A's faults leaked into B's counters: %v", snap.Counters)
	}
	wait := snap.Histograms["serve.queue.wait"]
	if wait.Count != n {
		t.Fatalf("tenant B queue-wait count = %d, want %d", wait.Count, n)
	}
	// B has idle workers, so its p99 queue wait must stay far below
	// the seconds tenant A's requests are stalled for.
	if p99 := wait.Quantile(0.99); p99 > 1.0 {
		t.Fatalf("tenant B queue-wait p99 = %gs — tenant A's stall leaked", p99)
	}

	// Pool rollup sees A as unhealthy, B as fine.
	h := p.HealthSnapshot()
	if h.Healthy || !h.Tenants["healthy"].Healthy || h.Tenants["faulty"].Healthy {
		t.Fatalf("pool health %+v", h)
	}
}

// TestRemoveTenantDrainsExactlyOnce races concurrent removers against
// in-flight submissions: exactly one remover wins, accepted requests
// are delivered exactly once each, and post-removal traffic gets a
// typed error.
func TestRemoveTenantDrainsExactlyOnce(t *testing.T) {
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	t.Cleanup(func() { _ = p.Close() })
	if _, err := p.AddTenant(TenantConfig{
		ID: "victim", System: sys, Workers: 2, QueueSize: 64,
		// Keep work in flight long enough for removal to race it.
		FaultHook: func(rec *audio.Recording) *audio.Recording {
			time.Sleep(time.Millisecond)
			return rec
		},
	}); err != nil {
		t.Fatal(err)
	}

	const nReqs = 60
	var accepted, delivered atomic.Int64
	perID := make([]atomic.Int32, nReqs)

	var wg sync.WaitGroup
	for i := 0; i < nReqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx := i
			_, err := p.Submit(context.Background(), "victim", serve.Request{
				ID:        strconv.Itoa(i),
				Recording: testRecording(uint64(i)),
				Callback: func(r serve.Result) {
					perID[idx].Add(1)
					delivered.Add(1)
				},
			})
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrUnknownTenant), errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrQueueFull):
				// Rejected before acceptance: typed, and no callback owed.
			default:
				t.Errorf("submit %d: unexpected error %v", i, err)
			}
		}(i)
	}

	// Concurrent removers: exactly one must win.
	const nRemovers = 4
	var wins atomic.Int64
	for r := 0; r < nRemovers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.RemoveTenant(context.Background(), "victim")
			switch {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrUnknownTenant):
			default:
				t.Errorf("remove: unexpected error %v", err)
			}
		}()
	}
	wg.Wait()

	if wins.Load() != 1 {
		t.Fatalf("removal wins = %d, want exactly 1", wins.Load())
	}
	// The winner's Drain returned, so every accepted request has been
	// delivered — exactly once each.
	if delivered.Load() != accepted.Load() {
		t.Fatalf("delivered %d of %d accepted", delivered.Load(), accepted.Load())
	}
	for i := range perID {
		if c := perID[i].Load(); c > 1 {
			t.Fatalf("request %d delivered %d times", i, c)
		}
	}
	if _, err := p.Submit(context.Background(), "victim", serve.Request{ID: "late", Recording: testRecording(99)}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("post-removal submit = %v, want ErrUnknownTenant", err)
	}
	if p.Len() != 0 {
		t.Fatalf("pool still holds %d tenants", p.Len())
	}
}
