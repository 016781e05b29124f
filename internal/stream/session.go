package stream

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/va"
)

// Status classifies what a push did — in particular, which early-exit
// gate (if any) stopped the cascade before the expensive decision
// pipeline ran.
type Status int

const (
	// StatusInvalid: the chunk failed shape/finiteness validation and
	// was discarded before touching the ring.
	StatusInvalid Status = iota
	// StatusBuffered: samples were ingested but the spotter has not yet
	// accumulated a full template-length window, so no score exists.
	StatusBuffered
	// StatusSilent: the chunk was below the energy floor past the
	// hangover; fingerprinting and spotting were skipped entirely.
	StatusSilent
	// StatusNoWake: the spotter scored at least one full window and the
	// best score stayed below the threshold — the cascade exited before
	// the decision pipeline.
	StatusNoWake
	// StatusSpotted: the wake word was spotted but no decision function
	// is configured; the caller gets the candidate score only.
	StatusSpotted
	// StatusDecided: the wake word was spotted and the decision
	// pipeline ran on the candidate window.
	StatusDecided
	// StatusEvicted: the push raced with End/EvictIdle/Close — the
	// session was unlinked from the manager before the push ran, so the
	// chunk was discarded. Retrying the same ID starts a fresh session.
	StatusEvicted
)

// String returns the wire name of the status.
func (s Status) String() string {
	switch s {
	case StatusInvalid:
		return "invalid"
	case StatusBuffered:
		return "buffered"
	case StatusSilent:
		return "silent"
	case StatusNoWake:
		return "no_wake"
	case StatusSpotted:
		return "spotted"
	case StatusDecided:
		return "decided"
	case StatusEvicted:
		return "evicted"
	}
	return "unknown"
}

// SpanDurations carries the streaming-side stage timings of the push
// that produced a candidate, so the decision layer can record ingest
// and spot trace spans alongside its own stages.
type SpanDurations struct {
	Ingest time.Duration // validation, ring write, decimation
	Spot   time.Duration // fingerprinting and online template scoring
}

// PushResult reports what one push accomplished.
type PushResult struct {
	Status    Status
	SpotScore float64        // best window score this push (valid unless StatusBuffered/StatusInvalid/StatusSilent)
	Decision  *core.Decision // set only for StatusDecided
	Err       error          // decision pipeline error, if any (StatusDecided with nil Decision)
	// Speaker identifies the tracked speaker this candidate was
	// attributed to (StatusSpotted/StatusDecided with Config.Speakers
	// enabled; nil otherwise).
	Speaker *SpeakerInfo
}

// DecideFunc runs the full decision pipeline on a spotted candidate
// window. The recording is a fresh snapshot owned by the callee.
type DecideFunc func(ctx context.Context, rec *audio.Recording, spans SpanDurations) (core.Decision, error)

// session is one client's streaming state. Its mutex serializes pushes
// and is never required by the manager's janitor or map operations, so
// a session stalled inside the decision pipeline cannot block other
// sessions or eviction.
type session struct {
	mu sync.Mutex

	id  string
	mgr *Manager

	ring   *Ring
	framer *HopFramer // 16 kHz hopped analysis frames
	fp     *va.Fingerprinter
	online *va.OnlineSpotter

	factor  int       // decimation factor SampleRate/16k
	mono    []float64 // decimated mono scratch, grown to max chunk
	fpFrame []float64 // one fingerprint frame
	emitFn  func(frame []float64)

	decimAcc   float64 // boxcar accumulator spanning chunk boundaries
	decimCount int

	silentSamples int // continuous sub-floor samples so far
	cooldown      int // hops to ignore after a candidate fires

	// Per-push spotting state written by emitFn.
	pushBest  float64
	pushReady bool

	lastTouched atomic.Int64 // unix nanos; read lock-free by the janitor
	// ended is set under the manager's map lock when the session is
	// unlinked (End, EvictIdle, Close). A push that acquired the session
	// pointer before the unlink observes the tombstone under s.mu and
	// fails with StatusEvicted instead of silently mutating orphaned
	// state that a later acquire of the same ID can never see.
	ended atomic.Bool
}

func (m *Manager) newSession(id string) (*session, error) {
	fp, err := va.NewFingerprinter(va.SpotterSampleRate)
	if err != nil {
		return nil, err
	}
	s := &session{
		id:      id,
		mgr:     m,
		ring:    NewRing(m.cfg.Channels, m.windowSamples),
		framer:  NewHopFramer(fp.FrameLen(), fp.Hop()),
		fp:      fp,
		online:  m.cfg.Spotter.NewOnline(),
		factor:  int(m.cfg.SampleRate / va.SpotterSampleRate),
		fpFrame: make([]float64, fp.Bands()),
	}
	s.emitFn = s.spotFrame
	s.lastTouched.Store(m.now().UnixNano())
	return s, nil
}

// spotFrame is the per-hop unit: fingerprint one analysis frame and
// feed it to the online scorer. Bound once so HopFramer.Push needs no
// per-call closure.
func (s *session) spotFrame(frame []float64) {
	s.fp.Frame(s.fpFrame, frame)
	score, ready := s.online.PushFrame(s.fpFrame)
	if s.cooldown > 0 {
		s.cooldown--
		return
	}
	if ready {
		s.pushReady = true
		if score > s.pushBest {
			s.pushBest = score
		}
	}
}

// validate checks chunk shape and finiteness and returns the
// per-channel sample count and chunk energy (mean square across all
// channels), or ok=false.
func (s *session) validate(frame [][]float64) (n int, energy float64, ok bool) {
	if len(frame) != s.ring.Channels() {
		return 0, 0, false
	}
	n = len(frame[0])
	if n == 0 || n > s.ring.Cap() {
		return 0, 0, false
	}
	var acc float64
	for _, ch := range frame {
		if len(ch) != n {
			return 0, 0, false
		}
		for _, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, false
			}
			acc += v * v
		}
	}
	return n, acc / float64(n*len(frame)), true
}

// decimate averages the chunk across channels and boxcar-decimates by
// factor into s.mono, carrying partial boxcars across chunk
// boundaries. Returns the decimated slice (reused storage).
func (s *session) decimate(frame [][]float64, n int) []float64 {
	want := (n + s.decimCount + s.factor - 1) / s.factor
	if cap(s.mono) < want {
		s.mono = make([]float64, want)
	}
	out := s.mono[:0]
	inv := 1.0 / float64(len(frame))
	for i := 0; i < n; i++ {
		var m float64
		for _, ch := range frame {
			m += ch[i]
		}
		s.decimAcc += m * inv
		s.decimCount++
		if s.decimCount == s.factor {
			out = append(out, s.decimAcc/float64(s.factor))
			s.decimAcc = 0
			s.decimCount = 0
		}
	}
	s.mono = out
	return out
}

// push runs the early-exit cascade on one chunk:
//
//	validate → ring write → energy floor → fingerprint+spot → decide
//
// Each gate that fails ends the push immediately — in particular a
// rejection at the energy or spotter gate never reaches the decision
// pipeline (and therefore never runs GCC over microphone pairs).
func (s *session) push(ctx context.Context, frame [][]float64) (PushResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	m := s.mgr
	if s.ended.Load() {
		m.ins.exitEvicted.Inc()
		return PushResult{Status: StatusEvicted}, ErrSessionEnded
	}
	t0 := m.now()
	s.lastTouched.Store(t0.UnixNano())
	m.ins.pushTotal.Inc()

	n, energy, ok := s.validate(frame)
	if !ok {
		m.ins.exitValidate.Inc()
		return PushResult{Status: StatusInvalid}, ErrBadFrame
	}
	m.ins.pushSamples.Add(uint64(n))
	s.ring.Push(frame)

	if energy < energyThreshold {
		s.silentSamples += n
		if s.silentSamples > m.hangoverSamples {
			// Deep silence: drop partial analysis state so a stale
			// half-window cannot blend into the next utterance, and skip
			// the spectral work entirely.
			s.framer.Reset()
			s.online.Reset()
			s.decimAcc = 0
			s.decimCount = 0
			m.ins.exitEnergy.Inc()
			return PushResult{Status: StatusSilent}, nil
		}
	} else {
		s.silentSamples = 0
	}

	tIngest := m.now()
	s.pushBest = math.Inf(-1)
	s.pushReady = false
	s.framer.Push(s.decimate(frame, n), s.emitFn)
	tSpot := m.now()

	if !s.pushReady {
		return PushResult{Status: StatusBuffered}, nil
	}
	if s.pushBest < m.cfg.Spotter.Threshold {
		m.ins.exitSpotter.Inc()
		return PushResult{Status: StatusNoWake, SpotScore: s.pushBest}, nil
	}

	// Candidate: suppress re-triggering on the same utterance, then hand
	// the retained window to the decision pipeline.
	m.ins.candidates.Inc()
	s.cooldown = m.cfg.Spotter.TemplateFrames()
	s.online.Reset()
	res := PushResult{Status: StatusSpotted, SpotScore: s.pushBest}
	// One snapshot per candidate. The speaker signature reads it before
	// the decision pipeline runs, because Decide then owns the snapshot
	// and may mutate it.
	rec := s.ring.Snapshot(m.cfg.SampleRate)
	var sig []int
	if m.speakers != nil {
		if v, err := Signature(rec, signatureMaxLag); err == nil {
			sig = v
		}
	}
	if m.cfg.Decide == nil {
		res.Speaker = m.attributeSpeaker(sig, nil)
		return res, nil
	}
	spans := SpanDurations{Ingest: tIngest.Sub(t0), Spot: tSpot.Sub(tIngest)}
	d, err := m.cfg.Decide(ctx, rec, spans)
	res.Status = StatusDecided
	if err != nil {
		res.Err = err
		res.Speaker = m.attributeSpeaker(sig, nil)
		return res, nil
	}
	m.ins.decisions.Inc()
	res.Decision = &d
	res.Speaker = m.attributeSpeaker(sig, &d)
	return res, nil
}
