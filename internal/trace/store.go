package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Store retains finished traces in two fixed-capacity rings: a
// "recent" ring holding the last N decisions, and a "slow" ring that
// only admits traces at or above a latency threshold fixed at
// NewStore — so a burst of fast decisions can never evict the
// tail-latency evidence the tracing exists to capture. Evictions are
// counted.
//
// The Store also owns the tracing on/off switch and the trace ID
// sequence; a serving engine auto-creates recorders from its store
// while the switch is on, and callers may force one recorder through
// regardless (per-request tracing).
type Store struct {
	enabled atomic.Bool
	seq     atomic.Uint64
	slowThr time.Duration

	mu          sync.Mutex
	recent      []*Trace
	recentStart int
	recentLen   int
	dropped     uint64

	slow        []*Trace
	slowStart   int
	slowLen     int
	slowDropped uint64
}

// DefaultCapacity is the recent-ring size when NewStore gets a
// non-positive capacity.
const DefaultCapacity = 256

// DefaultSlowThreshold marks decisions worth retaining unconditionally
// when NewStore gets a zero threshold.
const DefaultSlowThreshold = 250 * time.Millisecond

// NewStore sizes the rings. capacity <= 0 selects DefaultCapacity; the
// slow ring holds capacity/4 traces (at least 16). slowThreshold == 0
// selects DefaultSlowThreshold; negative disables slow retention.
// Tracing starts disabled — call SetEnabled(true) to turn it on.
func NewStore(capacity int, slowThreshold time.Duration) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	slowCap := capacity / 4
	if slowCap < 16 {
		slowCap = 16
	}
	if slowThreshold == 0 {
		slowThreshold = DefaultSlowThreshold
	}
	return &Store{
		slowThr: slowThreshold,
		recent:  make([]*Trace, capacity),
		slow:    make([]*Trace, slowCap),
	}
}

// SetEnabled flips automatic per-decision tracing on or off. Nil-safe.
func (s *Store) SetEnabled(on bool) {
	if s != nil {
		s.enabled.Store(on)
	}
}

// Enabled reports whether automatic tracing is on (false on nil).
func (s *Store) Enabled() bool { return s != nil && s.enabled.Load() }

// NewRecorder starts a recorder with the store's next sequential ID.
// Nil-safe: a nil store returns a nil (no-op) recorder.
func (s *Store) NewRecorder() *Recorder {
	if s == nil {
		return nil
	}
	return NewRecorder(fmt.Sprintf("t-%06d", s.seq.Add(1)))
}

// Add retains a finished trace: always in the recent ring, and in the
// slow ring too when its Total meets the threshold. Nil store or nil
// trace is a no-op.
func (s *Store) Add(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pushRing(s.recent, &s.recentStart, &s.recentLen, &s.dropped, t)
	if s.slowThr >= 0 && t.Total >= s.slowThr {
		pushRing(s.slow, &s.slowStart, &s.slowLen, &s.slowDropped, t)
	}
}

// pushRing appends into a fixed ring, evicting (and counting) the
// oldest entry once full.
func pushRing(ring []*Trace, start, length *int, dropped *uint64, t *Trace) {
	if *length < len(ring) {
		ring[(*start+*length)%len(ring)] = t
		*length++
		return
	}
	ring[*start] = t
	*start = (*start + 1) % len(ring)
	*dropped++
}

// copyRing returns up to max entries, newest first.
func copyRing(ring []*Trace, start, length, max int) []*Trace {
	n := length
	if max > 0 && max < n {
		n = max
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		// newest first: walk backwards from the last stored entry.
		idx := (start + length - 1 - i + len(ring)*2) % len(ring)
		out = append(out, ring[idx])
	}
	return out
}

// Recent returns up to max recent traces, newest first (max <= 0:
// all retained).
func (s *Store) Recent(max int) []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyRing(s.recent, s.recentStart, s.recentLen, max)
}

// Slow returns up to max retained slow traces, newest first.
func (s *Store) Slow(max int) []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyRing(s.slow, s.slowStart, s.slowLen, max)
}

// Dropped reports how many traces each ring has evicted.
func (s *Store) Dropped() (recent, slow uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped, s.slowDropped
}
