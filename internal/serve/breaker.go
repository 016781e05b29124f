package serve

import (
	"sync"
	"time"

	"headtalk/internal/metrics"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed: traffic flows; consecutive pipeline failures are
	// counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the engine rejects fast with ErrBreakerOpen until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one probe request is in flight; its outcome
	// closes or re-opens the breaker.
	BreakerHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// Breaker is a consecutive-failure circuit breaker. The serving
// engine shares one across all its workers: pipeline failures (errors
// and panics — not per-request bad input, deadline expiries or
// full-queue rejections) increment a consecutive counter; at threshold
// the breaker opens and the engine rejects fast. After cooldown one
// probe request is let through half-open: success closes the breaker,
// failure re-opens it for another cooldown. The cluster layer reuses
// the same breaker per peer, where "failure" means a transport-level
// forward failure. All methods are safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	clock     func() time.Time
	gauge     *metrics.Gauge // serve.breaker.state; may be nil in tests

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
}

func NewBreaker(threshold int, cooldown time.Duration, clock func() time.Time, gauge *metrics.Gauge) *Breaker {
	if clock == nil {
		clock = time.Now
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown, clock: clock, gauge: gauge}
	b.setStateLocked(BreakerClosed)
	return b
}

// disabled reports whether the breaker never trips (threshold < 0).
func (b *Breaker) Disabled() bool { return b.threshold < 0 }

func (b *Breaker) setStateLocked(s BreakerState) {
	b.state = s
	if b.gauge != nil {
		b.gauge.Set(int64(s))
	}
}

// allow reports whether a request may run the pipeline. probe is true
// when this request is the half-open probe; its outcome must be fed
// back via record(probe=true).
func (b *Breaker) Allow() (ok, probe bool) {
	if b.Disabled() {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.clock().Sub(b.openedAt) >= b.cooldown {
			b.setStateLocked(BreakerHalfOpen)
			return true, true
		}
		return false, false
	case BreakerHalfOpen:
		// A probe is already in flight; keep rejecting fast.
		return false, false
	}
	return true, false
}

// record feeds one pipeline outcome back. probe must be the value
// returned by the matching allow call.
func (b *Breaker) Record(success, probe bool) {
	if b.Disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		if success {
			b.consecutive = 0
			b.setStateLocked(BreakerClosed)
		} else {
			b.openedAt = b.clock()
			b.setStateLocked(BreakerOpen)
		}
		return
	}
	if b.state != BreakerClosed {
		// A non-probe task finishing while open/half-open (it was
		// already past allow when the breaker tripped) must not flip
		// the state; only the probe decides.
		return
	}
	if success {
		b.consecutive = 0
		return
	}
	b.consecutive++
	if b.consecutive >= b.threshold {
		b.openedAt = b.clock()
		b.setStateLocked(BreakerOpen)
	}
}

// ForceOpen trips the breaker as if the threshold had just been
// crossed (the cooldown starts now). Used by the operational
// TripBreaker control; no-op when disabled.
func (b *Breaker) ForceOpen() {
	if b.Disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.openedAt = b.clock()
	b.setStateLocked(BreakerOpen)
}

// snapshot returns the current state and consecutive-failure count.
func (b *Breaker) Snapshot() (BreakerState, int) {
	if b.Disabled() {
		return BreakerClosed, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.consecutive
}
