// Package core implements the HeadTalk privacy control itself (paper
// Fig. 1 and Fig. 2): the preprocessing stage, the liveness gate, the
// orientation gate, the Normal/Mute/HeadTalk mode state machine and
// the face-once session semantics. The other internal packages are the
// substrates this one composes.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/features"
	"headtalk/internal/liveness"
	"headtalk/internal/metrics"
	"headtalk/internal/mic"
	"headtalk/internal/orientation"
	"headtalk/internal/registry"
	"headtalk/internal/trace"
)

// Mode is the assistant's privacy mode (paper Fig. 1).
type Mode int

// Privacy modes.
const (
	// ModeNormal accepts every detected wake word, like a stock VA.
	ModeNormal Mode = iota
	// ModeMute rejects everything; the physical mute button.
	ModeMute
	// ModeHeadTalk accepts a wake word only from a live human facing
	// the device.
	ModeHeadTalk
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeMute:
		return "mute"
	case ModeHeadTalk:
		return "headtalk"
	default:
		return "unknown"
	}
}

// ParseMode reverses Mode.String.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeNormal, ModeMute, ModeHeadTalk} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown privacy mode %q (want normal|mute|headtalk)", s)
}

// Reason explains a decision.
type Reason string

// Decision reasons.
const (
	ReasonAccepted       Reason = "accepted"
	ReasonMuted          Reason = "device muted"
	ReasonNotLive        Reason = "rejected: mechanical speaker detected"
	ReasonNotFacing      Reason = "rejected: speaker not facing the device"
	ReasonSessionActive  Reason = "accepted: session already active"
	ReasonNormalMode     Reason = "accepted: normal mode"
	ReasonNoOrientation  Reason = "rejected: no orientation model enrolled"
	ReasonNoLiveness     Reason = "rejected: no liveness model trained"
	ReasonProcessingFail Reason = "rejected: processing error"
	// ReasonBadInput: the recording failed input validation (NaN/Inf
	// samples, clipping, truncation, sample-rate mismatch). Applied in
	// every mode — a privacy control fails closed on garbage input.
	ReasonBadInput Reason = "rejected: malformed input"
	// ReasonDegraded: too few healthy microphone channels survived the
	// per-channel health check to make a trustworthy decision.
	ReasonDegraded Reason = "rejected: microphone array degraded below minimum channels"
	// ReasonPanic: the pipeline panicked mid-decision; the serving
	// layer converts the recovered panic into this fail-closed reject.
	ReasonPanic Reason = "rejected: pipeline panic"
	// ReasonFingerprintMismatch: the capture's spectral profile does
	// not match the enrolled array fingerprint — it crossed an
	// electro-acoustic chain (or a microphone array) the enrollment
	// never saw.
	ReasonFingerprintMismatch Reason = "rejected: capture does not match enrolled array fingerprint"
	// ReasonUnhealthy: the serving engine's circuit breaker is open
	// after repeated pipeline failures; decisions fail closed without
	// running the pipeline.
	ReasonUnhealthy Reason = "rejected: serving engine unhealthy"
)

// Slug returns a short machine-friendly identifier for the reason,
// used as a metrics label segment.
func (r Reason) Slug() string {
	switch r {
	case ReasonAccepted:
		return "accepted"
	case ReasonMuted:
		return "muted"
	case ReasonNotLive:
		return "not_live"
	case ReasonNotFacing:
		return "not_facing"
	case ReasonSessionActive:
		return "session_active"
	case ReasonNormalMode:
		return "normal_mode"
	case ReasonNoOrientation:
		return "no_orientation"
	case ReasonNoLiveness:
		return "no_liveness"
	case ReasonProcessingFail:
		return "processing_fail"
	case ReasonBadInput:
		return "bad_input"
	case ReasonDegraded:
		return "degraded"
	case ReasonPanic:
		return "panic"
	case ReasonFingerprintMismatch:
		return "fingerprint_mismatch"
	case ReasonUnhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// Decision is the outcome of processing one wake-word utterance.
type Decision struct {
	Accepted bool
	Reason   Reason
	// LiveScore is the probability the audio is live human speech
	// (only meaningful when the liveness gate ran).
	LiveScore float64
	LiveRan   bool
	// FacingScore is the orientation classifier margin (positive =
	// facing) when the orientation gate ran.
	FacingScore float64
	FacingRan   bool
	// FingerprintScore is the array-fingerprint similarity in (0, 1]
	// when that liveness gate ran (fused ensemble).
	FingerprintScore float64
	FingerprintRan   bool
	// ShadowScore is the shadow (candidate) orientation model's margin
	// when a registry had a version under shadow evaluation. It never
	// affects Accepted.
	ShadowScore float64
	ShadowRan   bool
	// Latencies of the two gates (paper §IV-B15 reports 42 ms and
	// 136 ms on a PC).
	LivenessLatency    time.Duration
	OrientationLatency time.Duration
	// DegradedChannels counts microphone channels the health check
	// scored as dead/stuck/low-SNR (HeadTalk mode only).
	DegradedChannels int
}

// Config assembles a System.
type Config struct {
	// SampleRate of incoming recordings (default 48 kHz).
	SampleRate float64
	// BandpassLow/BandpassHigh bound the preprocessing filter
	// (defaults 100 Hz / 16 kHz; paper §III).
	BandpassLow, BandpassHigh float64
	// BandpassOrder is the Butterworth order (default 5).
	BandpassOrder int
	// SessionTimeout: once a facing wake word opens a session, further
	// commands within the window skip the facing check (the user "does
	// not need to continuously face the device for the remaining
	// session"). Default 30 s.
	SessionTimeout time.Duration
	// Models resolves the trained gates for every decision. This is
	// the model-attachment API: pass a *registry.Registry for
	// versioned models with hot-swap, rollback, shadow evaluation and
	// online adaptation, or registry.NewStatic for a fixed set. A nil
	// Models is an empty static set: HeadTalk mode then rejects with
	// ReasonNoOrientation.
	Models registry.Provider
	// LivenessThreshold is the minimum live score (default 0.5).
	LivenessThreshold float64
	// Features configures orientation feature extraction. A zero
	// MaxLag defaults to 13 samples (the D2 array at 48 kHz).
	Features features.Config
	// ChannelSubset selects which recording channels feed the
	// orientation gate (nil = all channels). The paper uses 4-mic
	// subsets by default.
	ChannelSubset []int
	// InputValidation tunes the pre-DSP input hardening stage (its
	// SampleRate defaults to this config's SampleRate). Recordings that
	// fail validation are rejected with ReasonBadInput in every mode.
	InputValidation audio.ValidateOptions
	// ChannelHealth tunes the per-channel dead/stuck/low-SNR scoring
	// that gates HeadTalk-mode decisions.
	ChannelHealth mic.HealthConfig
	// MinChannels is the smallest healthy-channel count the orientation
	// gate will decide with (default 2); below it the decision fails
	// closed with ReasonDegraded.
	MinChannels int
	// LogCapacity bounds the decision log. A long-running daemon
	// otherwise grows the log without limit; once full, the oldest
	// events are dropped and counted. Default 1024.
	LogCapacity int
	// Metrics, when non-nil, receives per-decision instrumentation:
	// accept/reject counters by Reason, per-gate latency histograms
	// and preprocessing latency. The registry may be shared with a
	// serving engine.
	Metrics *metrics.Registry
	// Clock abstracts time for session handling (tests inject a fake);
	// nil uses time.Now.
	Clock func() time.Time
}

// System is a HeadTalk privacy controller. It is safe for concurrent
// use.
type System struct {
	mu          sync.Mutex
	mode        Mode
	cfg         Config
	sessionOpen bool
	sessionEnd  time.Time

	// Decision log as a fixed-capacity ring: log has capacity
	// cfg.LogCapacity, logStart indexes the oldest event, logLen counts
	// stored events, dropped counts evicted ones.
	log      []Event
	logStart int
	logLen   int
	dropped  uint64

	// bp holds the Butterworth band-pass designed once at NewSystem;
	// its coefficients are immutable and cloned into per-goroutine
	// Preprocessors, so the hot path never redoes the design trig.
	bp      *dsp.IIRFilter
	prePool sync.Pool

	ins *instruments
}

// instruments caches the system's metric handles so the hot path
// never takes the registry lock.
type instruments struct {
	decisions  *metrics.Counter
	accepted   *metrics.Counter
	rejected   *metrics.Counter
	byReason   map[Reason]*metrics.Counter
	preprocess *metrics.Histogram
	liveGate   *metrics.Histogram
	fpGate     *metrics.Histogram
	orientGate *metrics.Histogram
	logDropped *metrics.Counter

	// Fault-health instrumentation: input rejections by validation
	// reason and the degraded-channel count of the most recent health
	// check.
	inputRejected     map[audio.BadInputReason]*metrics.Counter
	channelsDegraded  *metrics.Gauge
	degradedDecisions *metrics.Counter
}

func newInstruments(r *metrics.Registry) *instruments {
	ins := &instruments{
		decisions:         r.Counter("headtalk.decisions.total"),
		accepted:          r.Counter("headtalk.decisions.accepted"),
		rejected:          r.Counter("headtalk.decisions.rejected"),
		byReason:          make(map[Reason]*metrics.Counter),
		preprocess:        r.Histogram("headtalk.preprocess.latency", nil),
		liveGate:          r.Histogram("headtalk.gate.liveness.latency", nil),
		fpGate:            r.Histogram("headtalk.gate.fingerprint.latency", nil),
		orientGate:        r.Histogram("headtalk.gate.orientation.latency", nil),
		logDropped:        r.Counter("headtalk.log.dropped"),
		inputRejected:     make(map[audio.BadInputReason]*metrics.Counter),
		channelsDegraded:  r.Gauge("headtalk.channels.degraded"),
		degradedDecisions: r.Counter("headtalk.degraded.decisions"),
	}
	for _, reason := range []Reason{
		ReasonAccepted, ReasonMuted, ReasonNotLive, ReasonNotFacing,
		ReasonSessionActive, ReasonNormalMode, ReasonNoOrientation,
		ReasonNoLiveness, ReasonProcessingFail,
		ReasonBadInput, ReasonDegraded, ReasonPanic, ReasonUnhealthy,
		ReasonFingerprintMismatch,
	} {
		ins.byReason[reason] = r.Counter("headtalk.decisions.reason." + reason.Slug())
	}
	for _, reason := range audio.BadInputReasons() {
		ins.inputRejected[reason] = r.Counter("headtalk.input.rejected." + string(reason))
	}
	return ins
}

// Event is one entry in the system's decision log (the paper's
// command-history privacy control).
type Event struct {
	Time     time.Time
	Mode     Mode
	Decision Decision
}

// NewSystem validates the configuration and returns a system in
// Normal mode.
func NewSystem(cfg Config) (*System, error) {
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 48000
	}
	if cfg.BandpassLow == 0 {
		cfg.BandpassLow = 100
	}
	if cfg.BandpassHigh == 0 {
		cfg.BandpassHigh = 16000
	}
	if cfg.BandpassOrder == 0 {
		cfg.BandpassOrder = 5
	}
	if cfg.SessionTimeout == 0 {
		cfg.SessionTimeout = 30 * time.Second
	}
	if cfg.LivenessThreshold == 0 {
		cfg.LivenessThreshold = 0.5
	}
	if cfg.LogCapacity == 0 {
		cfg.LogCapacity = 1024
	}
	if cfg.LogCapacity < 1 {
		cfg.LogCapacity = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MinChannels == 0 {
		cfg.MinChannels = 2
	}
	if cfg.InputValidation.SampleRate == 0 {
		cfg.InputValidation.SampleRate = cfg.SampleRate
	}
	if cfg.BandpassHigh >= cfg.SampleRate/2 {
		return nil, fmt.Errorf("core: bandpass high %g Hz >= Nyquist %g", cfg.BandpassHigh, cfg.SampleRate/2)
	}
	if cfg.Features.MaxLag == 0 {
		cfg.Features = features.DefaultConfig(13, cfg.SampleRate)
	}
	bp, err := dsp.NewButterworthBandPass(cfg.BandpassOrder, cfg.BandpassLow, cfg.BandpassHigh, cfg.SampleRate)
	if err != nil {
		return nil, fmt.Errorf("core: designing bandpass: %w", err)
	}
	if cfg.Models == nil {
		cfg.Models = registry.NewStatic(registry.ModelSet{})
	}
	s := &System{mode: ModeNormal, cfg: cfg, bp: bp}
	s.prePool.New = func() any { return s.NewPreprocessor() }
	if cfg.Metrics != nil {
		s.ins = newInstruments(cfg.Metrics)
	}
	return s, nil
}

// Preprocessor owns the per-goroutine DSP state (the band-pass biquad
// cascade) and the scratch arena for the paper's preprocessing stage
// and downstream feature path. Each serving worker holds its own
// Preprocessor so concurrent decisions never contend on filter state
// or a lock, and so a warm worker's steady-state ProcessWake allocates
// nothing: the band-passed samples, channel-health scoring, channel
// plan, both liveness gates' spectra and ConvNet activations, GCC/SRP
// workspace, feature vectors and standardized classifier input all
// live in buffers the Preprocessor reuses. A Preprocessor
// must not be used from more than one goroutine at a time.
type Preprocessor struct {
	bp  *dsp.IIRFilter
	ins *instruments

	// Arena: single-decision scratch.
	plan          planScratch
	preBack       []float64
	preChans      [][]float64
	preRec        audio.Recording
	selChans      [][]float64
	selRec        audio.Recording
	mono          []float64
	live          liveness.Workspace
	feats         features.Workspace
	mlScratch     []float64
	shadowScratch []float64
}

// NewPreprocessor clones the system's designed band-pass into an
// independent preprocessing pipeline.
func (s *System) NewPreprocessor() *Preprocessor {
	return &Preprocessor{bp: s.bp.Clone(), ins: s.ins}
}

// Config returns a copy of the system's resolved configuration (every
// default filled in at NewSystem). The cluster snapshot layer reads it
// to capture a tenant's trained gates, thresholds and feature geometry
// for migration; the referenced models are shared, not cloned, and
// must be treated as read-only.
func (s *System) Config() Config { return s.cfg }

// Models returns the system's model provider (a *registry.Registry
// when one was attached, or a registry.Static).
func (s *System) Models() registry.Provider { return s.cfg.Models }

// ModelSet resolves the current model set — the same one-atomic-load
// view the decision path uses. The returned set and its models are
// read-only.
func (s *System) ModelSet() *registry.ModelSet { return s.cfg.Models.ModelSet() }

// applyInto runs the paper's fifth-order Butterworth band-pass
// (100 Hz – 16 kHz) over every channel into the preprocessor's arena.
// The returned recording aliases p's backing store and is valid until
// the next applyInto call; a warm arena makes it allocation-free.
func (p *Preprocessor) applyInto(rec *audio.Recording) *audio.Recording {
	start := time.Now()
	n := rec.Len()
	nch := len(rec.Channels)
	if cap(p.preBack) < n*nch {
		p.preBack = make([]float64, n*nch)
	}
	if cap(p.preChans) < nch {
		p.preChans = make([][]float64, nch)
	}
	p.preChans = p.preChans[:nch]
	for i, ch := range rec.Channels {
		dst := p.preBack[i*n : (i+1)*n : (i+1)*n]
		p.bp.ApplyTo(dst, ch)
		p.preChans[i] = dst
	}
	p.preRec = audio.Recording{SampleRate: rec.SampleRate, Channels: p.preChans}
	if p.ins != nil {
		p.ins.preprocess.ObserveDuration(time.Since(start))
	}
	return &p.preRec
}

// selectInto mirrors audio.Recording.Select on arena-backed channel
// headers: the returned recording aliases p and the source channels and
// is valid until the next selectInto call.
func (p *Preprocessor) selectInto(src *audio.Recording, idx []int) (*audio.Recording, error) {
	if cap(p.selChans) < len(idx) {
		p.selChans = make([][]float64, 0, len(idx))
	}
	p.selChans = p.selChans[:0]
	for _, i := range idx {
		if i < 0 || i >= len(src.Channels) {
			return nil, fmt.Errorf("audio: channel %d out of range (have %d)", i, len(src.Channels))
		}
		p.selChans = append(p.selChans, src.Channels[i])
	}
	p.selRec = audio.Recording{SampleRate: src.SampleRate, Channels: p.selChans}
	return &p.selRec, nil
}

// validateInput runs the input-hardening stage. It returns a typed
// *audio.ErrBadInput (wrapped) on rejection.
func (s *System) validateInput(rec *audio.Recording) error {
	err := audio.Validate(rec, s.cfg.InputValidation)
	if err == nil {
		return nil
	}
	if bad, isBad := audio.AsBadInput(err); s.ins != nil && isBad {
		if c, ok := s.ins.inputRejected[bad.Reason]; ok {
			c.Inc()
		}
	}
	return fmt.Errorf("core: input validation: %w", err)
}

// channelPlan is the outcome of the degraded-array policy for one
// decision: which channels feed the gates, how degraded the array is,
// and which orientation model matches the surviving pair set.
type channelPlan struct {
	// active feeds the orientation gate (GCC/SRP pair set); nil means
	// all channels.
	active []int
	// healthy feeds the liveness mono mix; nil means all channels.
	healthy []int
	// degraded counts non-OK channels.
	degraded int
	// ok is false when the decision must fail closed (ReasonDegraded).
	ok bool
	// model scores the orientation features (primary or per-count
	// fallback); nil keeps the ReasonNoOrientation semantics.
	model *orientation.Model
}

// planScratch holds the channel-plan working set (health assessment,
// membership flags, the active list) so a per-worker arena can run the
// degraded-array policy without allocating.
type planScratch struct {
	health     mic.ArrayHealth
	healthySet []bool
	used       []bool
	active     []int
}

// planChannelsInto scores channel health on the raw capture (band-passing
// would hide DC-stuck channels) and assembles the orientation channel
// set from healthy channels only. When a channel of the configured
// subset has died, a healthy spare is substituted so the pair-set
// cardinality — and with it the feature dimensionality the model was
// trained on — is preserved. Only when too few healthy channels remain
// does the plan fall back to a smaller per-count model, or fail closed.
//
// The plan runs on caller-owned scratch and an already-resolved model
// set (one resolution per decision keeps the plan and the gates on the
// same registry version). The returned plan's active and healthy
// slices alias the scratch and are valid until its next use.
func (s *System) planChannelsInto(ps *planScratch, rec *audio.Recording, set *registry.ModelSet) channelPlan {
	mic.AssessHealthInto(&ps.health, rec, s.cfg.ChannelHealth)
	h := &ps.health
	plan := channelPlan{healthy: h.Healthy, degraded: h.Degraded()}

	// Target count = the feature dimensionality the primary model
	// expects: the configured subset size, or the full array.
	preferred := s.cfg.ChannelSubset
	target := len(rec.Channels)
	if len(preferred) > 0 {
		target = len(preferred)
	}
	nch := len(rec.Channels)
	if cap(ps.healthySet) < nch {
		ps.healthySet = make([]bool, nch)
		ps.used = make([]bool, nch)
	}
	healthySet := ps.healthySet[:nch]
	used := ps.used[:nch]
	for i := range healthySet {
		healthySet[i] = false
		used[i] = false
	}
	for _, i := range h.Healthy {
		healthySet[i] = true
	}
	active := ps.active[:0]
	if len(preferred) > 0 {
		for _, i := range preferred {
			if i >= 0 && i < nch && healthySet[i] && !used[i] {
				active = append(active, i)
				used[i] = true
			}
		}
	}
	for _, i := range h.Healthy {
		if len(active) >= target {
			break
		}
		if !used[i] {
			active = append(active, i)
			used[i] = true
		}
	}
	sort.Ints(active)
	ps.active = active
	plan.active = active

	switch {
	case len(active) < s.cfg.MinChannels:
		// Fewer healthy channels than the floor: fail closed.
	case len(active) == target:
		plan.ok = true
		plan.model = set.Orientation
	default:
		// Surviving pair set is smaller than the primary model's; only
		// a fallback trained for exactly this channel count can score
		// it.
		if m := set.OrientationByChannels[len(active)]; m != nil {
			plan.ok = true
			plan.model = m
		}
	}
	return plan
}

// Mode returns the current privacy mode.
func (s *System) Mode() Mode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode
}

// SetMode switches privacy modes ("Alexa, enter HeadTalk mode").
func (s *System) SetMode(m Mode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = m
	s.sessionOpen = false
}

// SessionActive reports whether a facing-validated session is open.
func (s *System) SessionActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionActiveLocked()
}

func (s *System) sessionActiveLocked() bool {
	return s.sessionOpen && s.cfg.Clock().Before(s.sessionEnd)
}

// EndSession closes any open session immediately.
func (s *System) EndSession() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessionOpen = false
}

// ProcessWake runs the full HeadTalk decision pipeline (paper Fig. 2)
// on a detected wake-word recording and logs the outcome. The
// recording should contain just the wake-word utterance from the
// device's microphone array.
//
// This is the canonical, context-first entry point: pass
// context.Background() when there is nothing to propagate. The context
// may carry a trace.Recorder (trace.NewContext), in which case every
// pipeline stage records a span; with no recorder the tracing hooks
// are free no-ops.
func (s *System) ProcessWake(ctx context.Context, rec *audio.Recording) (Decision, error) {
	p := s.prePool.Get().(*Preprocessor)
	defer s.prePool.Put(p)
	return s.ProcessWakeWith(ctx, p, rec)
}

// ProcessWakeWith is ProcessWake with caller-supplied preprocessing
// state. Serving workers call this with a Preprocessor they own so the
// DSP hot path runs without any shared mutable state; p must not be
// used concurrently from another goroutine.
func (s *System) ProcessWakeWith(ctx context.Context, p *Preprocessor, rec *audio.Recording) (Decision, error) {
	tr := trace.FromContext(ctx)
	s.mu.Lock()
	mode := s.mode
	s.mu.Unlock()

	// Input hardening runs in every mode, before any DSP: a privacy
	// control fails closed on malformed input rather than letting
	// garbage reach the feature path (or, in Normal mode, the cloud).
	vStart := tr.Begin()
	err := s.validateInput(rec)
	tr.End(trace.StageValidate, vStart)
	if err != nil {
		d := Decision{Reason: ReasonBadInput}
		s.logEvent(mode, d)
		tr.SetOutcome(mode.String(), false, d.Reason.Slug())
		return d, err
	}

	var d Decision
	switch mode {
	case ModeMute:
		d = Decision{Accepted: false, Reason: ReasonMuted}
	case ModeNormal:
		d = Decision{Accepted: true, Reason: ReasonNormalMode}
	case ModeHeadTalk:
		d, err = s.headTalkDecision(tr, p, rec)
		if err != nil {
			s.logEvent(mode, Decision{Reason: ReasonProcessingFail})
			tr.SetGates(d.LiveScore, d.LiveRan, d.FacingScore, d.FacingRan)
			tr.SetOutcome(mode.String(), false, ReasonProcessingFail.Slug())
			return Decision{Reason: ReasonProcessingFail}, err
		}
	}
	s.logEvent(mode, d)
	tr.SetGates(d.LiveScore, d.LiveRan, d.FacingScore, d.FacingRan)
	tr.SetOutcome(mode.String(), d.Accepted, d.Reason.Slug())
	return d, nil
}

func (s *System) headTalkDecision(tr *trace.Recorder, p *Preprocessor, rec *audio.Recording) (Decision, error) {
	// Resolve the model set exactly once: everything downstream — the
	// channel plan, both liveness gates, the orientation score and any
	// shadow score — works from this one immutable set, so a registry
	// hot-swap mid-decision can never mix versions.
	set := s.cfg.Models.ModelSet()

	// Degraded-array policy first: channels the health check distrusts
	// must not feed either gate, and with too few survivors the
	// decision fails closed before any feature is computed.
	planStart := tr.Begin()
	plan := s.planChannelsInto(&p.plan, rec, set)
	tr.End(trace.StageChannelPlan, planStart)
	return s.decideWithPlan(tr, p, rec, plan, set)
}

// decideWithPlan runs the liveness and orientation gates for one
// already-planned recording.
func (s *System) decideWithPlan(tr *trace.Recorder, p *Preprocessor, rec *audio.Recording, plan channelPlan, set *registry.ModelSet) (Decision, error) {
	var d Decision
	tr.SetPlan(plan.active, plan.degraded)
	d.DegradedChannels = plan.degraded
	if s.ins != nil {
		s.ins.channelsDegraded.Set(int64(plan.degraded))
	}
	if !plan.ok {
		d.Reason = ReasonDegraded
		if s.ins != nil {
			s.ins.degradedDecisions.Inc()
		}
		return d, nil
	}

	// Session shortcut: a facing-validated session accepts follow-ups
	// without re-checking orientation, but liveness is still enforced
	// so a replay can't ride an open session.
	sessionActive := s.SessionActive()

	// The band-pass is computed lazily: a session-shortcut decision
	// with no liveness gate never consumes the preprocessed samples, so
	// the steady state of an open session skips the filter sweep (and
	// its arena write) entirely.
	var pre *audio.Recording
	preprocess := func() *audio.Recording {
		if pre == nil {
			preStart := tr.Begin()
			pre = p.applyInto(rec)
			tr.End(trace.StagePreprocess, preStart)
		}
		return pre
	}

	// Fused-ensemble arming: with RequireEnsemble set, liveness fails
	// closed — a missing spectral or fingerprint model rejects instead
	// of silently skipping a gate.
	if set.RequireEnsemble && (set.Liveness == nil || set.ArrayFingerprint == nil) {
		d.Reason = ReasonNoLiveness
		return d, nil
	}

	if set.Liveness != nil {
		// Liveness mixes down every *healthy* channel — a dead channel
		// would dilute the mono mix by its share.
		monoSrc := preprocess()
		if len(plan.healthy) > 0 && len(plan.healthy) < len(monoSrc.Channels) {
			sel, serr := p.selectInto(monoSrc, plan.healthy)
			if serr != nil {
				return d, fmt.Errorf("core: selecting healthy channels: %w", serr)
			}
			monoSrc = sel
		}
		start := time.Now()
		mono := monoSrc.MonoInto(p.mono)
		p.mono = mono
		score, lerr := set.Liveness.ScoreWith(&p.live, mono, rec.SampleRate)
		d.LivenessLatency = time.Since(start)
		tr.Observe(trace.StageLiveness, d.LivenessLatency)
		if s.ins != nil {
			s.ins.liveGate.ObserveDuration(d.LivenessLatency)
		}
		if lerr != nil {
			return d, fmt.Errorf("core: liveness gate: %w", lerr)
		}
		d.LiveScore = score
		d.LiveRan = true
		if score < s.cfg.LivenessThreshold {
			d.Reason = ReasonNotLive
			return d, nil
		}
	}

	if set.ArrayFingerprint != nil {
		// Second liveness signal: the capture's long-term spectral
		// profile must match the enrolled array fingerprint. It runs on
		// the RAW healthy channels — band-passing would strip exactly
		// the out-of-band coloration (driver roll-off, playback noise
		// floor) the fingerprint keys on. Like the spectral gate, it is
		// enforced even on open sessions so a replay can't ride one.
		fpSrc := rec
		if len(plan.healthy) > 0 && len(plan.healthy) < len(rec.Channels) {
			sel, serr := p.selectInto(rec, plan.healthy)
			if serr != nil {
				return d, fmt.Errorf("core: fingerprint gate: %w", serr)
			}
			fpSrc = sel
		}
		start := time.Now()
		fpOK, fpScore, ferr := set.ArrayFingerprint.CheckWith(&p.live, fpSrc)
		fpDur := time.Since(start)
		tr.Observe(trace.StageFingerprint, fpDur)
		if s.ins != nil {
			s.ins.fpGate.ObserveDuration(fpDur)
		}
		if ferr != nil {
			return d, fmt.Errorf("core: fingerprint gate: %w", ferr)
		}
		d.FingerprintScore = fpScore
		d.FingerprintRan = true
		if !fpOK {
			d.Reason = ReasonFingerprintMismatch
			return d, nil
		}
	}

	if sessionActive {
		d.Accepted = true
		d.Reason = ReasonSessionActive
		s.extendSession()
		return d, nil
	}

	if plan.model == nil {
		d.Reason = ReasonNoOrientation
		return d, nil
	}
	// Band-pass and channel selection happen outside the orientation
	// timing window (matching the eager pipeline's stage attribution);
	// feature extraction and scoring are the gate's latency.
	src := preprocess()
	if len(plan.active) > 0 {
		sel, serr := p.selectInto(src, plan.active)
		if serr != nil {
			return d, fmt.Errorf("core: orientation features: %w", serr)
		}
		src = sel
	}
	start := time.Now()
	feats, ferr := p.feats.Extract(src, s.cfg.Features)
	if ferr != nil {
		return d, fmt.Errorf("core: orientation features: %w", ferr)
	}
	// A vector the model cannot score (dim mismatch after degradation,
	// non-finite feature from a DSP fault) must reject, not gamble.
	if cerr := plan.model.CheckFeatures(feats); cerr != nil {
		return d, fmt.Errorf("core: orientation features: %w", cerr)
	}
	pred, score, scratch := plan.model.PredictScore(feats, p.mlScratch)
	p.mlScratch = scratch
	d.FacingScore = score
	d.OrientationLatency = time.Since(start)
	tr.Observe(trace.StageOrientation, d.OrientationLatency)
	if s.ins != nil {
		s.ins.orientGate.ObserveDuration(d.OrientationLatency)
	}
	d.FacingRan = true
	if set.OnScore != nil {
		set.OnScore(score)
	}

	// Shadow evaluation: the candidate version scores the same feature
	// vector, outside the active gate's timing window; its result is
	// recorded and metered but never decides.
	if set.Shadow != nil {
		if cerr := set.Shadow.CheckFeatures(feats); cerr == nil {
			sPred, sScore, sScratch := set.Shadow.PredictScore(feats, p.shadowScratch)
			p.shadowScratch = sScratch
			d.ShadowScore = sScore
			d.ShadowRan = true
			if set.OnShadow != nil {
				set.OnShadow(pred, sPred, score, sScore)
			}
		}
	}

	if pred != orientation.LabelFacing {
		d.Reason = ReasonNotFacing
		return d, nil
	}
	d.Accepted = true
	d.Reason = ReasonAccepted
	if set.OnAccepted != nil {
		// feats aliases the preprocessor arena: the hook must copy what
		// it keeps (the registry's adaptation hook does).
		set.OnAccepted(feats, score)
	}
	s.openSession()
	return d, nil
}

func (s *System) openSession() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessionOpen = true
	s.sessionEnd = s.cfg.Clock().Add(s.cfg.SessionTimeout)
}

func (s *System) extendSession() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessionOpen {
		s.sessionEnd = s.cfg.Clock().Add(s.cfg.SessionTimeout)
	}
}

func (s *System) logEvent(mode Mode, d Decision) {
	if s.ins != nil {
		s.ins.decisions.Inc()
		if d.Accepted {
			s.ins.accepted.Inc()
		} else {
			s.ins.rejected.Inc()
		}
		if c, ok := s.ins.byReason[d.Reason]; ok {
			c.Inc()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		s.log = make([]Event, s.cfg.LogCapacity)
	}
	ev := Event{Time: s.cfg.Clock(), Mode: mode, Decision: d}
	if s.logLen < len(s.log) {
		s.log[(s.logStart+s.logLen)%len(s.log)] = ev
		s.logLen++
		return
	}
	// Ring full: overwrite the oldest event and count the eviction.
	s.log[s.logStart] = ev
	s.logStart = (s.logStart + 1) % len(s.log)
	s.dropped++
	if s.ins != nil {
		s.ins.logDropped.Inc()
	}
}

// History returns a copy of the decision log, oldest first. At most
// Config.LogCapacity events are retained; DroppedEvents counts the
// rest.
func (s *System) History() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, s.logLen)
	for i := 0; i < s.logLen; i++ {
		out[i] = s.log[(s.logStart+i)%len(s.log)]
	}
	return out
}

// DroppedEvents reports how many log events have been evicted from
// the bounded history since the last ClearHistory.
func (s *System) DroppedEvents() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// ClearHistory deletes the decision log (the paper's delete-history
// privacy control) and resets the dropped-event count.
func (s *System) ClearHistory() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = nil
	s.logStart = 0
	s.logLen = 0
	s.dropped = 0
}
