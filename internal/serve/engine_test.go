package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
)

// testRecording returns a short 4-channel noise burst — enough to run
// the preprocessing stage without training any gate model.
func testRecording(seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 7))
	rec := audio.NewRecording(48000, 4, 4800)
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = rng.NormFloat64()
		}
	}
	return rec
}

// newTestEngine builds a started engine over a fresh System (Normal
// mode: decisions are fast and always accepted).
func newTestEngine(t *testing.T, workers, queueSize int, reg *metrics.Registry) (*Engine, *core.System) {
	t.Helper()
	sys, err := core.NewSystem(core.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{System: sys, Workers: workers, QueueSize: queueSize, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	return eng, sys
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("engine without a system should fail")
	}
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(context.Background(), Request{Recording: testRecording(1)}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("submit before Start = %v, want ErrNotStarted", err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err == nil {
		t.Fatal("double Start should fail")
	}
	if _, err := eng.Submit(context.Background(), Request{}); err == nil {
		t.Fatal("submit without recording should fail")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v, want ErrClosed", err)
	}
}

func TestDecideRoundTrip(t *testing.T) {
	eng, _ := newTestEngine(t, 2, 8, nil)
	d, err := eng.Decide(context.Background(), testRecording(2))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Accepted || d.Reason != core.ReasonNormalMode {
		t.Fatalf("decision %+v", d)
	}
}

func TestSubmitAsyncChannel(t *testing.T) {
	eng, _ := newTestEngine(t, 2, 8, nil)
	ch, err := eng.Submit(context.Background(), Request{ID: "req-7", Recording: testRecording(3)})
	if err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.ID != "req-7" || res.Err != nil || !res.Decision.Accepted {
		t.Fatalf("result %+v", res)
	}
	if res.Total < res.QueueWait {
		t.Fatalf("total %v < queue wait %v", res.Total, res.QueueWait)
	}
}

func TestSubmitCallback(t *testing.T) {
	eng, _ := newTestEngine(t, 1, 8, nil)
	got := make(chan Result, 1)
	ch, err := eng.Submit(context.Background(), Request{
		ID:        "cb",
		Recording: testRecording(4),
		Callback:  func(r Result) { got <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch != nil {
		t.Fatal("callback submissions should not also return a channel")
	}
	res := <-got
	if res.ID != "cb" || !res.Decision.Accepted {
		t.Fatalf("callback result %+v", res)
	}
}

// stallWorkers blocks every worker of eng inside a callback until the
// returned release func is called; it returns once all workers are
// confirmed stalled.
func stallWorkers(t *testing.T, eng *Engine, workers int) (release func()) {
	t.Helper()
	entered := make(chan struct{}, workers)
	gate := make(chan struct{})
	for i := 0; i < workers; i++ {
		_, err := eng.Submit(context.Background(), Request{
			ID:        fmt.Sprintf("stall-%d", i),
			Recording: testRecording(100 + uint64(i)),
			Callback: func(Result) {
				entered <- struct{}{}
				<-gate
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("workers did not stall")
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func TestQueueFullBackpressure(t *testing.T) {
	eng, _ := newTestEngine(t, 1, 2, nil)
	release := stallWorkers(t, eng, 1)
	defer release()

	// Fill the queue behind the stalled worker.
	var chans []<-chan Result
	for i := 0; ; i++ {
		ch, err := eng.Submit(context.Background(), Request{ID: fmt.Sprintf("q-%d", i), Recording: testRecording(200 + uint64(i))})
		if errors.Is(err, ErrQueueFull) {
			if i < 2 {
				t.Fatalf("queue full after only %d submissions (size 2)", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
		if i > 10 {
			t.Fatal("queue never filled")
		}
	}
	if eng.cfg.Metrics.Snapshot().Counters["serve.rejected.queue_full"] == 0 {
		t.Fatal("queue-full rejection not counted")
	}
	// Backpressure clears once the worker resumes: every accepted
	// submission still completes.
	release()
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("queued submission %d failed: %v", i, res.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued submission %d never delivered", i)
		}
	}
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	eng, _ := newTestEngine(t, 1, 4, nil)
	release := stallWorkers(t, eng, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ch, err := eng.Submit(ctx, Request{ID: "late", Recording: testRecording(5)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the deadline lapse while queued
	release()
	res := <-ch
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("expired request err = %v, want DeadlineExceeded", res.Err)
	}
	if res.Decision.Accepted {
		t.Fatal("expired request must not carry an accepted decision")
	}
	if eng.cfg.Metrics.Snapshot().Counters["serve.expired.deadline"] != 1 {
		t.Fatal("deadline expiry not counted")
	}
}

func TestDecideBlocksForQueueSpace(t *testing.T) {
	eng, _ := newTestEngine(t, 1, 1, nil)
	release := stallWorkers(t, eng, 1)

	// Occupy the single queue slot.
	if _, err := eng.Submit(context.Background(), Request{ID: "filler", Recording: testRecording(6)}); err != nil {
		t.Fatal(err)
	}
	// Submit fails fast; Decide with a short deadline blocks then
	// reports the deadline, not ErrQueueFull.
	if _, err := eng.Submit(context.Background(), Request{ID: "x", Recording: testRecording(7)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit on full queue = %v, want ErrQueueFull", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := eng.Decide(ctx, testRecording(8)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Decide = %v, want DeadlineExceeded", err)
	}
	release()
}

// TestDrainDeliversExactlyOnce proves the lifecycle guarantee: every
// submission accepted before Close is delivered exactly once, and
// submissions after Close are rejected with ErrClosed.
func TestDrainDeliversExactlyOnce(t *testing.T) {
	eng, _ := newTestEngine(t, 4, 64, nil)

	const n = 48
	var mu sync.Mutex
	delivered := make(map[string]int)
	accepted := 0
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r-%d", i)
		_, err := eng.Submit(context.Background(), Request{
			ID:        id,
			Recording: testRecording(300 + uint64(i)),
			Callback: func(r Result) {
				mu.Lock()
				delivered[r.ID]++
				mu.Unlock()
			},
		})
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(context.Background(), Request{ID: "post", Recording: testRecording(9)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
	if _, err := eng.Decide(context.Background(), testRecording(10)); !errors.Is(err, ErrClosed) {
		t.Fatalf("decide after Close = %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != accepted {
		t.Fatalf("delivered %d distinct results, accepted %d submissions", len(delivered), accepted)
	}
	for id, count := range delivered {
		if count != 1 {
			t.Fatalf("request %s delivered %d times", id, count)
		}
	}
	// Second Close is a no-op.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainTimeout(t *testing.T) {
	eng, _ := newTestEngine(t, 1, 4, nil)
	release := stallWorkers(t, eng, 1)
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := eng.Drain(ctx); err == nil {
		t.Fatal("drain with a stalled worker should report the deadline")
	}
	release()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, _ := newTestEngine(t, 2, 16, reg)
	for i := 0; i < 5; i++ {
		if _, err := eng.Decide(context.Background(), testRecording(400+uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	s := reg.Snapshot()
	if s.Counters["serve.submitted.total"] != 5 || s.Counters["serve.completed.total"] != 5 {
		t.Fatalf("submitted/completed = %d/%d, want 5/5",
			s.Counters["serve.submitted.total"], s.Counters["serve.completed.total"])
	}
	if s.Histograms["serve.queue.wait"].Count != 5 || s.Histograms["serve.decision.latency"].Count != 5 {
		t.Fatal("latency histograms missing observations")
	}
	if s.Gauges["serve.queue.depth"] != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", s.Gauges["serve.queue.depth"])
	}
	// The shared registry also carries the core system's counters.
	if s.Counters["headtalk.decisions.total"] != 5 {
		t.Fatalf("core decisions via shared registry = %d, want 5", s.Counters["headtalk.decisions.total"])
	}
}

// TestEngineConcurrentHammer mixes Submit, Decide, SetMode and
// SessionActive from many goroutines over one engine + system; with
// -race this is the serving layer's concurrency proof. The invariant
// checked: every accepted submission gets exactly one delivery.
func TestEngineConcurrentHammer(t *testing.T) {
	eng, sys := newTestEngine(t, 4, 8, nil)
	sys.SetMode(core.ModeHeadTalk) // nil models: preprocess runs, reject no_orientation

	var deliveries, acceptedSubs, rejectedSubs metricsCounter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch i % 5 {
				case 0:
					sys.SetMode(core.ModeHeadTalk)
					sys.SessionActive()
				case 1:
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					if _, err := eng.Decide(ctx, testRecording(uint64(w*1000+i))); err != nil &&
						!errors.Is(err, ErrClosed) && !errors.Is(err, context.DeadlineExceeded) {
						t.Error(err)
					}
					cancel()
				default:
					_, err := eng.Submit(context.Background(), Request{
						ID:        fmt.Sprintf("h-%d-%d", w, i),
						Recording: testRecording(uint64(w*1000 + i)),
						Callback:  func(Result) { deliveries.inc() },
					})
					switch {
					case err == nil:
						acceptedSubs.inc()
					case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed):
						rejectedSubs.inc()
					default:
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if deliveries.value() != acceptedSubs.value() {
		t.Fatalf("deliveries = %d, accepted submissions = %d", deliveries.value(), acceptedSubs.value())
	}
}

// metricsCounter is a tiny test-local atomic counter.
type metricsCounter struct {
	mu sync.Mutex
	n  int
}

func (c *metricsCounter) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }
func (c *metricsCounter) value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
