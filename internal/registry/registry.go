package registry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"headtalk/internal/liveness"
	"headtalk/internal/metrics"
	"headtalk/internal/orientation"
)

// Kind names a managed model family.
type Kind string

const (
	// KindOrientation is the GCC-PHAT/SRP feature → RBF-SVM facing
	// classifier (the paper's §III-C gate).
	KindOrientation Kind = "orientation"
	// KindLiveness is the spectral ConvNet human-vs-mechanical
	// detector.
	KindLiveness Kind = "liveness"
	// KindArrayFingerprint is the per-array spectral signature gate
	// that pairs with the spectral detector in the fused ensemble.
	KindArrayFingerprint Kind = "fingerprint"
)

// Kinds lists every model family a registry manages, in canonical
// order.
func Kinds() []Kind { return []Kind{KindOrientation, KindLiveness, KindArrayFingerprint} }

// State is a version's position in the lifecycle:
// candidate → active → archived.
type State string

const (
	// StateCandidate: stored and validated, not yet serving.
	StateCandidate State = "candidate"
	// StateActive: the one version whose scores decide.
	StateActive State = "active"
	// StateArchived: superseded; retained for rollback until pruned.
	StateArchived State = "archived"
)

// ModelSet is one immutable, internally-consistent view of every model
// the decision pipeline needs. The registry publishes a new set behind
// an atomic pointer on every mutation; a decision loads the pointer
// once and works from that set for its whole lifetime, so hot-swap
// and rollback are atomic with respect to in-flight requests — no decision ever sees the orientation model from one
// version and the liveness model from another.
//
// A ModelSet and everything it references MUST be treated as
// read-only.
type ModelSet struct {
	// Orientation decides facing for captures on the default channel
	// subset. OrientationByChannels maps a channel count to a fallback
	// model trained for that count: when the array degrades below the
	// subset size but at least core.Config.MinChannels survive, the
	// gate scores the survivors with the matching fallback, and with
	// no entry it fails closed with ReasonDegraded (a model trained on
	// k channels cannot score a k'-channel feature vector).
	Orientation           *orientation.Model
	OrientationByChannels map[int]*orientation.Model
	// Liveness is the spectral ConvNet gate; nil disables it.
	Liveness *liveness.Detector
	// ArrayFingerprint is the enrolled array-signature gate; nil
	// disables it.
	ArrayFingerprint *liveness.ArrayFingerprint
	// RequireEnsemble makes the fused liveness ensemble mandatory:
	// with it set, a missing spectral or fingerprint model REJECTS
	// (fail closed) instead of skipping the gate.
	RequireEnsemble bool

	// Hooks, all optional and called synchronously on the decision
	// path (keep them cheap; the registry's own hooks only touch
	// atomics and a mutex-guarded slice append):
	//   OnScore    — every active-orientation score (drift detection).
	//   OnAccepted — every fully-accepted decision; feats is only
	//                valid during the call and must be copied.
	OnScore    func(score float64)
	OnAccepted func(feats []float64, score float64)
}

// Model returns the set's model of kind k, typed as DecodeModel
// returns it, or nil when the set has none.
func (s *ModelSet) Model(k Kind) any {
	switch {
	case k == KindOrientation && s.Orientation != nil:
		return s.Orientation
	case k == KindLiveness && s.Liveness != nil:
		return s.Liveness
	case k == KindArrayFingerprint && s.ArrayFingerprint != nil:
		return s.ArrayFingerprint
	}
	return nil
}

// SetModel stores m, a model as DecodeModel returns it, in its kind's
// slot.
func (s *ModelSet) SetModel(m any) {
	switch m := m.(type) {
	case *orientation.Model:
		s.Orientation = m
	case *liveness.Detector:
		s.Liveness = m
	case *liveness.ArrayFingerprint:
		s.ArrayFingerprint = m
	}
}

// Provider resolves the current ModelSet. Implementations must return
// an immutable set and may return a different set on each call (the
// registry swaps sets atomically); callers must resolve once per
// decision and not re-resolve mid-request.
type Provider interface {
	ModelSet() *ModelSet
}

// Static is the zero-machinery Provider: one fixed ModelSet, no
// versioning, no adaptation. core.NewSystem installs an empty one when
// Config.Models is nil; it is also the cheapest way to run tests.
type Static struct{ set *ModelSet }

// NewStatic wraps a fixed model set (copied) in a Provider.
func NewStatic(set ModelSet) *Static {
	return &Static{set: &set}
}

// ModelSet returns the fixed set.
func (s *Static) ModelSet() *ModelSet { return s.set }

// Config tunes a Registry.
type Config struct {
	// Metrics receives registry instrumentation (swap/rollback
	// counters, drift gauges). Optional.
	Metrics *metrics.Registry
	// MaxVersionsPerKind bounds retained versions per kind; the oldest
	// archived versions are pruned beyond it (never the active or
	// previous-active version). Default 8.
	MaxVersionsPerKind int
	// Adapt tunes online adaptation from accepted decisions.
	Adapt AdaptConfig
	// Drift tunes the score-distribution drift detector.
	Drift DriftConfig
	// EnsembleMode arms the fused liveness ensemble: the published
	// ModelSet carries the fingerprint gate and RequireEnsemble, so
	// liveness fails closed when either gate's model is missing.
	EnsembleMode bool
}

func (c Config) withDefaults() Config {
	if c.MaxVersionsPerKind == 0 {
		c.MaxVersionsPerKind = 8
	}
	c.Adapt = c.Adapt.withDefaults()
	c.Drift = c.Drift.withDefaults()
	return c
}

// Version is one immutable stored model version.
type Version struct {
	Kind   Kind
	Number uint64
	// Checksum is the FNV-64a hex checksum of Bytes — what Status
	// reports and snapshots carry.
	Checksum string
	// State is the current lifecycle position.
	State State
	// Bytes is the canonical model document (the model's own
	// byte-stable serialization, no envelope). Promote and rollback
	// decode a fresh instance from these bytes, which is what makes
	// rollback byte-for-byte: the reactivated version serves exactly
	// the bytes it was stored with.
	Bytes []byte
}

// kindState tracks one model family's versions and lifecycle pointers.
type kindState struct {
	versions map[uint64]*Version
	// active / prevActive are version numbers (0 = none).
	active     uint64
	prevActive uint64
}

// instruments is the registry's metrics surface.
type instruments struct {
	swaps      *metrics.Counter
	rollbacks  *metrics.Counter
	adaptAccum *metrics.Counter
	adaptBuilt *metrics.Counter
	driftTrips *metrics.Counter
	driftShift *metrics.Gauge
}

func newInstruments(m *metrics.Registry) *instruments {
	if m == nil {
		return nil
	}
	return &instruments{
		swaps:      m.Counter("registry_swaps_total"),
		rollbacks:  m.Counter("registry_rollbacks_total"),
		adaptAccum: m.Counter("registry_adapt_accepted_total"),
		adaptBuilt: m.Counter("registry_adapt_candidates_total"),
		driftTrips: m.Counter("registry_drift_trips_total"),
		driftShift: m.Gauge("registry_drift_shift_millisigma"),
	}
}

// Registry is a versioned, per-tenant model store. All mutation goes
// through a mutex; the serving side reads one atomic pointer. Safe for
// concurrent use.
type Registry struct {
	cfg Config
	ins *instruments

	mu    sync.Mutex
	kinds map[Kind]*kindState
	// nextNum is the monotonically increasing version allocator,
	// shared across kinds so a version number is unique registry-wide.
	nextNum uint64

	set atomic.Pointer[ModelSet]

	adapt *adapter
	drift *driftDetector
}

// New builds an empty registry. The published ModelSet starts empty
// (every gate disabled) and updates on each Add/Promote/Rollback.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:   cfg,
		ins:   newInstruments(cfg.Metrics),
		kinds: make(map[Kind]*kindState),
	}
	r.drift = newDriftDetector(cfg.Drift, r.ins)
	r.adapt = newAdapter(r, cfg.Adapt)
	r.publishLocked()
	return r
}

// ModelSet implements Provider: one atomic load, immutable result.
func (r *Registry) ModelSet() *ModelSet { return r.set.Load() }

func (r *Registry) kind(k Kind) *kindState {
	ks := r.kinds[k]
	if ks == nil {
		ks = &kindState{versions: make(map[uint64]*Version)}
		r.kinds[k] = ks
	}
	return ks
}

// DecodeModel decodes payload as a fresh model of kind k: an
// *orientation.Model, *liveness.Detector or *liveness.ArrayFingerprint.
// It is the one decoder of model documents; damage surfaces as the
// model loaders' typed errors.
func DecodeModel(k Kind, payload []byte) (any, error) {
	switch k {
	case KindOrientation:
		return orientation.Load(bytes.NewReader(payload))
	case KindLiveness:
		return liveness.Load(bytes.NewReader(payload))
	case KindArrayFingerprint:
		return liveness.LoadFingerprint(bytes.NewReader(payload))
	}
	return nil, fmt.Errorf("registry: unknown model kind %q", k)
}

// EncodeModel serializes a live model (as DecodeModel returns it) into
// its canonical byte-stable document, without surrounding whitespace.
// It is the one encoder of model documents.
func EncodeModel(k Kind, model any) ([]byte, error) {
	m, ok := model.(interface{ Save(io.Writer) error })
	if !ok {
		return nil, fmt.Errorf("registry: cannot serialize %T as %s", model, k)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return bytes.TrimSpace(buf.Bytes()), nil
}

// storable validates payload as a document of kind k by decoding a
// fresh instance, and returns the copy the registry stores: surrounding
// whitespace (json.Encoder's trailing newline) is stripped, so the same
// document always stores, and checksums, identically wherever it came
// from.
func storable(k Kind, payload []byte) ([]byte, error) {
	if _, err := DecodeModel(k, payload); err != nil {
		return nil, err
	}
	return bytes.Clone(bytes.TrimSpace(payload)), nil
}

// Add stores payload (the model's canonical serialized document) as a
// new candidate version of kind, validating it by decoding a fresh
// instance first. The new version does not serve until promoted.
func (r *Registry) Add(k Kind, payload []byte) (uint64, error) {
	stored, err := storable(k, payload)
	if err != nil {
		return 0, fmt.Errorf("%w: %s candidate rejected: %v", ErrModelCorrupt, k, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextNum++
	num := r.nextNum
	ks := r.kind(k)
	ks.versions[num] = &Version{
		Kind:     k,
		Number:   num,
		Checksum: Checksum(stored),
		State:    StateCandidate,
		Bytes:    stored,
	}
	r.pruneLocked(ks)
	return num, nil
}

// AddModel serializes a live model and stores it as a candidate.
func (r *Registry) AddModel(k Kind, model any) (uint64, error) {
	payload, err := EncodeModel(k, model)
	if err != nil {
		return 0, err
	}
	return r.Add(k, payload)
}

// Install is Add + Promote in one step: store a live model and make it
// the active version immediately. It is how enrollment seeds a fresh
// registry.
func (r *Registry) Install(k Kind, model any) (uint64, error) {
	num, err := r.AddModel(k, model)
	if err != nil {
		return 0, err
	}
	if err := r.Promote(k, num); err != nil {
		return 0, err
	}
	return num, nil
}

// Promote makes version num of kind the active version, atomically
// hot-swapping the published ModelSet. The previously active version
// is archived and retained for Rollback. In-flight decisions keep the
// set they already resolved; new decisions see the new set — no drain,
// no torn state.
func (r *Registry) Promote(k Kind, num uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := r.kind(k)
	v := ks.versions[num]
	if v == nil {
		return fmt.Errorf("registry: %s version %d not found", k, num)
	}
	if ks.active == num {
		return nil
	}
	if prev := ks.versions[ks.active]; prev != nil {
		prev.State = StateArchived
	}
	ks.prevActive = ks.active
	ks.active = num
	v.State = StateActive
	r.publishLocked()
	if r.ins != nil {
		r.ins.swaps.Inc()
	}
	if k == KindOrientation {
		r.drift.reset()
	}
	return nil
}

// Rollback reactivates the previously active version of kind. Because
// the registry always rebuilds serving models from stored canonical
// bytes, the restored version serves byte-for-byte what it served
// before — Status will show its original checksum unchanged.
func (r *Registry) Rollback(k Kind) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := r.kind(k)
	if ks.prevActive == 0 {
		return 0, fmt.Errorf("registry: %s has no previous version to roll back to", k)
	}
	prev := ks.versions[ks.prevActive]
	if prev == nil {
		return 0, fmt.Errorf("registry: %s previous version %d was pruned", k, ks.prevActive)
	}
	if cur := ks.versions[ks.active]; cur != nil {
		cur.State = StateArchived
	}
	ks.active, ks.prevActive = ks.prevActive, ks.active
	prev.State = StateActive
	r.publishLocked()
	if r.ins != nil {
		r.ins.rollbacks.Inc()
	}
	if k == KindOrientation {
		r.drift.reset()
	}
	return ks.active, nil
}

// ImportActive installs payload as version num of kind and makes it
// active without allocating a new number — how snapshot restore
// reconstructs a registry so version numbers (and therefore Status and
// re-capture) survive the round trip.
func (r *Registry) ImportActive(k Kind, num uint64, payload []byte) error {
	stored, err := storable(k, payload)
	if err != nil {
		return fmt.Errorf("%w: %s import rejected: %v", ErrModelCorrupt, k, err)
	}
	if num == 0 {
		return fmt.Errorf("registry: import needs a nonzero version number")
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	ks := r.kind(k)
	if prev := ks.versions[ks.active]; prev != nil {
		prev.State = StateArchived
	}
	ks.versions[num] = &Version{
		Kind:     k,
		Number:   num,
		Checksum: Checksum(stored),
		State:    StateActive,
		Bytes:    stored,
	}
	if ks.active != 0 && ks.active != num {
		ks.prevActive = ks.active
	}
	ks.active = num
	if num > r.nextNum {
		r.nextNum = num
	}
	r.publishLocked()
	return nil
}

// ActiveBytes returns the active version's canonical model document
// and version number for kind (nil, 0 when none) — what snapshot
// capture embeds.
func (r *Registry) ActiveBytes(k Kind) ([]byte, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ks := r.kinds[k]
	if ks == nil || ks.active == 0 {
		return nil, 0
	}
	v := ks.versions[ks.active]
	if v == nil {
		return nil, 0
	}
	return v.Bytes, v.Number
}

// VersionInfo is one version's metadata (no payload) for Status.
type VersionInfo struct {
	Kind     Kind   `json:"kind"`
	Number   uint64 `json:"number"`
	Checksum string `json:"checksum"`
	State    State  `json:"state"`
}

// KindStatus summarizes one model family.
type KindStatus struct {
	Kind     Kind          `json:"kind"`
	Active   uint64        `json:"active"`
	Previous uint64        `json:"previous,omitempty"`
	Versions []VersionInfo `json:"versions"`
}

// Status reports every kind's lifecycle state, versions sorted by
// number.
func (r *Registry) Status() []KindStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]KindStatus, 0, len(r.kinds))
	for _, k := range Kinds() {
		ks := r.kinds[k]
		if ks == nil || len(ks.versions) == 0 {
			continue
		}
		st := KindStatus{Kind: k, Active: ks.active, Previous: ks.prevActive}
		for _, v := range ks.versions {
			st.Versions = append(st.Versions, VersionInfo{Kind: v.Kind, Number: v.Number, Checksum: v.Checksum, State: v.State})
		}
		sort.Slice(st.Versions, func(i, j int) bool { return st.Versions[i].Number < st.Versions[j].Number })
		out = append(out, st)
	}
	return out
}

// DriftState reports the drift detector's current baseline/rolling
// means and trip count.
func (r *Registry) DriftState() DriftState { return r.drift.state() }

// pruneLocked drops the oldest archived/candidate versions beyond
// MaxVersionsPerKind. The active and previous-active versions are never
// pruned.
func (r *Registry) pruneLocked(ks *kindState) {
	max := r.cfg.MaxVersionsPerKind
	if max <= 0 || len(ks.versions) <= max {
		return
	}
	nums := make([]uint64, 0, len(ks.versions))
	for n := range ks.versions {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		if len(ks.versions) <= max {
			break
		}
		if n == ks.active || n == ks.prevActive {
			continue
		}
		delete(ks.versions, n)
	}
}

// publishLocked rebuilds the served ModelSet from stored bytes and
// swaps it in atomically. Serving models are always decoded fresh from
// canonical bytes — never aliased to a caller's instance — so a stored
// version can never be mutated out from under the registry and
// rollback is byte-exact by construction. Called with r.mu held.
func (r *Registry) publishLocked() {
	set := &ModelSet{RequireEnsemble: r.cfg.EnsembleMode}
	for k, ks := range r.kinds {
		v := ks.versions[ks.active]
		if v == nil {
			continue
		}
		m, err := DecodeModel(k, v.Bytes)
		if err != nil {
			// Can't happen: bytes were validated at Add/Import. Treat
			// as missing rather than serving a broken model.
			continue
		}
		set.SetModel(m)
	}
	// Wire the registry's own observation hooks.
	set.OnScore = r.drift.observe
	if !r.cfg.Adapt.Disable {
		set.OnAccepted = r.adapt.observe
	}
	r.set.Store(set)
}
