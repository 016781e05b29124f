package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"headtalk/internal/metrics"
	"headtalk/internal/va"
)

// Sentinel errors returned by Manager.Push.
var (
	// ErrClosed: the manager has been closed.
	ErrClosed = errors.New("stream: manager closed")
	// ErrSessionLimit: creating the session would exceed MaxSessions
	// and no idle session could be evicted to make room.
	ErrSessionLimit = errors.New("stream: session limit reached")
	// ErrBadFrame: the pushed chunk failed shape or finiteness
	// validation.
	ErrBadFrame = errors.New("stream: bad frame")
	// ErrSessionEnded: the push raced with End/EvictIdle/Close and the
	// session was unlinked before the push ran. The chunk was discarded;
	// retrying the same ID starts a fresh session.
	ErrSessionEnded = errors.New("stream: session ended")
)

// Each session retains the last windowSeconds of audio, the window
// candidate snapshots are cut from. A push whose mean-square energy is
// below energyThreshold counts as silent, and continuous sub-floor
// audio is still fully processed for silenceHangover before the session
// goes dormant. The hangover must outlast intra-word gaps — stop-
// consonant closures in the wake word are near-silent for up to
// ~100 ms, and resetting the spotter inside one would split the
// utterance — while staying short enough that real silence stops
// burning FFTs quickly.
const (
	windowSeconds   = 1.5
	energyThreshold = 1e-4
	silenceHangover = 250 * time.Millisecond
)

// Config configures a session manager.
type Config struct {
	// SampleRate is the full-rate sample rate of pushed frames. It must
	// be an integer multiple of the spotter rate (16 kHz). Default 48000.
	SampleRate float64
	// Channels is the microphone count of pushed frames. Default 4.
	Channels int
	// Spotter scores candidate windows against its own threshold;
	// required.
	Spotter *va.Spotter
	// SessionTimeout evicts sessions idle this long. Default 30s.
	SessionTimeout time.Duration
	// MaxSessions bounds concurrent sessions. Default 64.
	MaxSessions int
	// JanitorEvery is the background eviction sweep period. Zero means
	// SessionTimeout/4; negative disables the janitor (callers may
	// still sweep via EvictIdle).
	JanitorEvery time.Duration
	// Metrics, when set, receives stream.* counters and gauges.
	Metrics *metrics.Registry
	// Clock overrides time.Now (tests).
	Clock func() time.Time
	// Decide runs the decision pipeline on spotted candidates. Nil is
	// allowed: pushes then stop at StatusSpotted.
	Decide DecideFunc
	// Speakers, when set, enables per-speaker tracking: every spotted
	// candidate is attributed to a speaker track by its TDoA signature,
	// and push results carry the track's identity, orientation history
	// and facing state. Tracks are evicted on their own timeout by the
	// same janitor that sweeps sessions.
	Speakers *TrackerConfig
}

// instruments holds pre-resolved metrics so the push hot path never
// touches the registry's maps. All fields are non-nil (a throwaway
// registry backs them when Config.Metrics is nil).
type instruments struct {
	active       *metrics.Gauge
	created      *metrics.Counter
	evicted      *metrics.Counter
	ended        *metrics.Counter
	rejected     *metrics.Counter
	pushTotal    *metrics.Counter
	pushSamples  *metrics.Counter
	exitValidate *metrics.Counter
	exitEnergy   *metrics.Counter
	exitSpotter  *metrics.Counter
	exitEvicted  *metrics.Counter
	candidates   *metrics.Counter
	decisions    *metrics.Counter

	speakerActive  *metrics.Gauge
	speakerCreated *metrics.Counter
	speakerMatched *metrics.Counter
	speakerEvicted *metrics.Counter
}

func newInstruments(reg *metrics.Registry) instruments {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return instruments{
		active:       reg.Gauge("stream.sessions.active"),
		created:      reg.Counter("stream.sessions.created"),
		evicted:      reg.Counter("stream.sessions.evicted"),
		ended:        reg.Counter("stream.sessions.ended"),
		rejected:     reg.Counter("stream.sessions.rejected"),
		pushTotal:    reg.Counter("stream.push.total"),
		pushSamples:  reg.Counter("stream.push.samples"),
		exitValidate: reg.Counter("stream.exit.validate"),
		exitEnergy:   reg.Counter("stream.exit.energy"),
		exitSpotter:  reg.Counter("stream.exit.spotter"),
		exitEvicted:  reg.Counter("stream.exit.evicted"),
		candidates:   reg.Counter("stream.candidates"),
		decisions:    reg.Counter("stream.decisions"),

		speakerActive:  reg.Gauge("stream.speakers.active"),
		speakerCreated: reg.Counter("stream.speakers.created"),
		speakerMatched: reg.Counter("stream.speakers.matched"),
		speakerEvicted: reg.Counter("stream.speakers.evicted"),
	}
}

// Manager owns the streaming sessions of one tenant: get-or-create on
// push, bounded count with evict-idle-then-reject at capacity, and a
// janitor that sweeps idle sessions on a timeout. The manager's lock
// guards only the session map — never a session's push path — so one
// stalled session cannot starve the rest.
type Manager struct {
	cfg             Config
	windowSamples   int
	hangoverSamples int
	ins             instruments

	mu       sync.RWMutex
	sessions map[string]*session
	closed   bool
	// sweeps counts at-capacity eviction sweeps triggered by acquire —
	// a test hook asserting that concurrent creators at the limit share
	// one sweep instead of each running their own.
	sweeps atomic.Uint64

	// speakers is non-nil when Config.Speakers enables cross-utterance
	// speaker tracking.
	speakers *Tracker

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// NewManager validates cfg, applies defaults, and starts the janitor
// (unless disabled).
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Spotter == nil {
		return nil, fmt.Errorf("stream: Config.Spotter is required")
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 48000
	}
	factor := cfg.SampleRate / va.SpotterSampleRate
	if factor < 1 || factor != float64(int(factor)) {
		return nil, fmt.Errorf("stream: sample rate %g is not an integer multiple of the %g Hz spotter rate", cfg.SampleRate, va.SpotterSampleRate)
	}
	if cfg.Channels == 0 {
		cfg.Channels = 4
	}
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("stream: channel count %d < 1", cfg.Channels)
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 30 * time.Second
	}
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Manager{
		cfg:             cfg,
		windowSamples:   int(windowSeconds * cfg.SampleRate),
		hangoverSamples: int(silenceHangover.Seconds() * cfg.SampleRate),
		ins:             newInstruments(cfg.Metrics),
		sessions:        make(map[string]*session),
	}
	if cfg.Speakers != nil {
		tc := *cfg.Speakers
		tc.applyDefaults(cfg.SessionTimeout)
		m.speakers = &Tracker{cfg: tc}
	}
	every := cfg.JanitorEvery
	if every == 0 {
		every = cfg.SessionTimeout / 4
	}
	if every > 0 {
		m.janitorStop = make(chan struct{})
		m.janitorDone = make(chan struct{})
		go m.janitor(every)
	}
	return m, nil
}

func (m *Manager) now() time.Time { return m.cfg.Clock() }

func (m *Manager) janitor(every time.Duration) {
	defer close(m.janitorDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case <-t.C:
			m.EvictIdle()
		}
	}
}

// Push routes one multichannel chunk (frame[c] is channel c's samples)
// into the named session, creating it if needed, and runs the
// early-exit cascade. See Status for the possible outcomes.
func (m *Manager) Push(ctx context.Context, sessionID string, frame [][]float64) (PushResult, error) {
	s, err := m.acquire(sessionID)
	if err != nil {
		return PushResult{Status: StatusInvalid}, err
	}
	return s.push(ctx, frame)
}

// acquire returns the named session, creating it under the map lock if
// missing. The returned session is used outside the lock — eviction
// only unlinks a session, it does not invalidate in-flight pushes.
func (m *Manager) acquire(id string) (*session, error) {
	m.mu.RLock()
	s, ok := m.sessions[id]
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return s, nil
	}
	if len(id) == 0 || len(id) > 128 {
		return nil, fmt.Errorf("%w: session id length %d", ErrBadFrame, len(id))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if s, ok := m.sessions[id]; ok {
		return s, nil
	}
	// At capacity, sweep idle sessions before rejecting — under the
	// write lock, so concurrent creators at the limit share one sweep
	// (the first holds the lock and evicts; the rest re-check and find
	// room) and the sweep can never interleave with Close.
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.evictIdleLocked()
		m.sweeps.Add(1)
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.ins.rejected.Inc()
		return nil, ErrSessionLimit
	}
	s, err := m.newSession(id)
	if err != nil {
		return nil, err
	}
	m.sessions[id] = s
	m.ins.created.Inc()
	m.ins.active.Set(int64(len(m.sessions)))
	return s, nil
}

// End removes the named session, reporting whether it existed. An
// in-flight push that raced the removal observes the tombstone and
// returns StatusEvicted rather than silently mutating orphaned state.
func (m *Manager) End(sessionID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[sessionID]
	if !ok {
		return false
	}
	s.ended.Store(true)
	delete(m.sessions, sessionID)
	m.ins.ended.Inc()
	m.ins.active.Set(int64(len(m.sessions)))
	return true
}

// EvictIdle removes sessions idle longer than SessionTimeout and
// returns how many were evicted. Idleness is read from a lock-free
// per-session timestamp, so a session stalled mid-push neither blocks
// the sweep nor counts as idle. When speaker tracking is enabled, idle
// speaker tracks are swept on their own timeout as well.
func (m *Manager) EvictIdle() int {
	m.mu.Lock()
	n := m.evictIdleLocked()
	m.mu.Unlock()
	if m.speakers != nil {
		if tn := m.speakers.EvictIdle(m.now()); tn > 0 {
			m.ins.speakerEvicted.Add(uint64(tn))
			m.ins.speakerActive.Set(int64(m.speakers.Len()))
		}
	}
	return n
}

// evictIdleLocked is the sweep body; the caller holds m.mu.
func (m *Manager) evictIdleLocked() int {
	cutoff := m.now().Add(-m.cfg.SessionTimeout).UnixNano()
	n := 0
	for id, s := range m.sessions {
		if s.lastTouched.Load() < cutoff {
			s.ended.Store(true)
			delete(m.sessions, id)
			n++
		}
	}
	if n > 0 {
		m.ins.evicted.Add(uint64(n))
		m.ins.active.Set(int64(len(m.sessions)))
	}
	return n
}

// Close stops the janitor and drops all sessions. Further pushes
// return ErrClosed; in-flight pushes complete.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	n := len(m.sessions)
	for _, s := range m.sessions {
		s.ended.Store(true)
	}
	m.sessions = make(map[string]*session)
	m.ins.active.Set(0)
	if n > 0 {
		m.ins.ended.Add(uint64(n))
	}
	stop := m.janitorStop
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-m.janitorDone
	}
}
