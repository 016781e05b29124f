package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// silentFrame builds a valid all-zero chunk (creates sessions cheaply
// via the energy-floor exit).
func silentFrame(channels, n int) [][]float64 {
	f := make([][]float64, channels)
	for c := range f {
		f[c] = make([]float64, n)
	}
	return f
}

// TestChaosPushAfterEvictSurfaces pins the eviction race
// deterministically: a push that grabbed the session before
// End/EvictIdle unlinked it must fail with StatusEvicted, not silently
// mutate orphaned state, and the next push under the same ID must get a
// fresh session.
func TestChaosPushAfterEvictSurfaces(t *testing.T) {
	clk := newFakeClock()
	m, err := NewManager(Config{
		Channels:       2,
		Spotter:        testSpotter(t),
		SessionTimeout: time.Second,
		JanitorEvery:   -1,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	frame := silentFrame(2, 480)

	// End path.
	s, err := m.acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if !m.End("a") {
		t.Fatal("End should report the session existed")
	}
	res, err := s.push(context.Background(), frame)
	if res.Status != StatusEvicted || !errors.Is(err, ErrSessionEnded) {
		t.Fatalf("push after End: %v / %v, want StatusEvicted / ErrSessionEnded", res.Status, err)
	}

	// EvictIdle path.
	s, err = m.acquire("b")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if n := m.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if res, err = s.push(context.Background(), frame); res.Status != StatusEvicted || !errors.Is(err, ErrSessionEnded) {
		t.Fatalf("push after EvictIdle: %v / %v", res.Status, err)
	}

	// The stale pointer must not resurrect: a fresh push under the same
	// ID creates a distinct session.
	if _, err := m.Push(context.Background(), "b", frame); err != nil {
		t.Fatalf("fresh push after eviction: %v", err)
	}
	m.mu.RLock()
	fresh := m.sessions["b"]
	m.mu.RUnlock()
	if fresh == s {
		t.Fatal("acquire resurrected the evicted session")
	}
	if fresh.ended.Load() {
		t.Fatal("fresh session born ended")
	}

	// Close path.
	m.Close()
	if res, err = fresh.push(context.Background(), frame); res.Status != StatusEvicted || !errors.Is(err, ErrSessionEnded) {
		t.Fatalf("push after Close: %v / %v", res.Status, err)
	}
}

// TestChaosConcurrentPushEvict hammers pushes against concurrent
// eviction under -race: every push either lands on a live session or
// surfaces the eviction; nothing panics, no push silently succeeds on
// an unlinked session and leaves the map inconsistent.
func TestChaosConcurrentPushEvict(t *testing.T) {
	clk := newFakeClock()
	m, err := NewManager(Config{
		Channels:       2,
		Spotter:        testSpotter(t),
		SessionTimeout: 50 * time.Millisecond,
		JanitorEvery:   -1,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const (
		pushers  = 8
		rounds   = 60
		sessions = 4
	)
	frame := silentFrame(2, 480)
	var wg sync.WaitGroup
	errCh := make(chan error, pushers+1)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			id := fmt.Sprintf("s%d", p%sessions)
			for r := 0; r < rounds; r++ {
				res, err := m.Push(context.Background(), id, frame)
				switch {
				case err == nil:
				case errors.Is(err, ErrSessionEnded):
					if res.Status != StatusEvicted {
						errCh <- fmt.Errorf("ErrSessionEnded with status %v", res.Status)
						return
					}
				default:
					errCh <- fmt.Errorf("push: %w", err)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			clk.Advance(60 * time.Millisecond)
			m.EvictIdle()
			m.End(fmt.Sprintf("s%d", r%sessions))
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestChaosAcquireSingleSweep asserts the at-capacity path runs its
// idle sweep under the write lock exactly once when many creators race
// at the limit — not one redundant full sweep per creator.
func TestChaosAcquireSingleSweep(t *testing.T) {
	const capacity = 8
	clk := newFakeClock()
	m, err := NewManager(Config{
		Channels:       2,
		Spotter:        testSpotter(t),
		SessionTimeout: time.Second,
		MaxSessions:    capacity,
		JanitorEvery:   -1,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	frame := silentFrame(2, 480)

	// Fill to capacity, then let everything go idle.
	for i := 0; i < capacity; i++ {
		if _, err := m.Push(context.Background(), fmt.Sprintf("old%d", i), frame); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Second)

	// capacity concurrent creators: the first to take the write lock
	// sweeps; the rest find room and must not sweep again.
	var wg sync.WaitGroup
	errCh := make(chan error, capacity)
	for i := 0; i < capacity; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := m.Push(context.Background(), fmt.Sprintf("new%d", i), frame); err != nil {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("creator rejected: %v", err)
	}
	if got := m.sweeps.Load(); got != 1 {
		t.Errorf("%d capacity sweeps, want exactly 1", got)
	}
	if got := int(m.ins.active.Value()); got != capacity {
		t.Errorf("%d live sessions, want %d", got, capacity)
	}
}
