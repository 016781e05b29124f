package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"headtalk/internal/core"
	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/orientation"
	"headtalk/internal/pool"
	"headtalk/internal/registry"
)

// SnapshotVersion is the envelope format this build reads and writes.
const SnapshotVersion = 1

// Typed snapshot errors. Restore failures chain to one of these (or to
// the ml/orientation/liveness load sentinels for blob-level damage) —
// a hostile or truncated envelope must fail with a matchable error,
// never a panic, and never a half-activated tenant.
var (
	// ErrSnapshotVersion: the envelope's format version is not one this
	// build reads.
	ErrSnapshotVersion = errors.New("cluster: unsupported snapshot version")
	// ErrSnapshotChecksum: the payload bytes do not match the recorded
	// checksum (truncation or corruption in transit/storage).
	ErrSnapshotChecksum = errors.New("cluster: snapshot checksum mismatch")
	// ErrSnapshotCorrupt: the envelope or payload failed to decode or
	// is internally inconsistent.
	ErrSnapshotCorrupt = errors.New("cluster: corrupt snapshot")
)

// Envelope is one tenant's portable state: format version, identity,
// and a checksummed payload carrying the trained gates, thresholds and
// profile. The payload stays raw JSON so the checksum is computed over
// exactly the bytes that cross the wire; model serialization is
// byte-stable (serialize → deserialize → serialize is identity), so an
// envelope captured on one node re-captures to the same checksum after
// a restore on another.
type Envelope struct {
	Version  int    `json:"version"`
	TenantID string `json:"tenant"`
	// Checksum is the FNV-64a hash of Payload, hex-encoded.
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// snapshotPayload is the envelope body: everything needed to rebuild
// the tenant's core.System on another node.
type snapshotPayload struct {
	SampleRate        float64 `json:"sample_rate"`
	Mode              string  `json:"mode"`
	LivenessThreshold float64 `json:"liveness_threshold"`
	SessionTimeoutMS  int64   `json:"session_timeout_ms"`
	// Features preserves the GCC lag window and band layout so
	// decision-time extraction on the restoring node agrees with the
	// enrolled model's geometry.
	Features      features.Config `json:"features"`
	ChannelSubset []int           `json:"channel_subset,omitempty"`
	MinChannels   int             `json:"min_channels,omitempty"`
	// Device and Room record the enrollment profile (informational +
	// used by daemons to rebuild streaming geometry).
	Device string `json:"device,omitempty"`
	Room   string `json:"room,omitempty"`
	// Liveness and Orientation are the trained model documents in
	// their own versioned formats (ml/orientation serialize).
	Liveness    json.RawMessage `json:"liveness,omitempty"`
	Orientation json.RawMessage `json:"orientation,omitempty"`
	// OrientationByChannels carries the degraded-array fallback models,
	// keyed by channel count (JSON object keys are strings).
	OrientationByChannels map[string]json.RawMessage `json:"orientation_by_channels,omitempty"`
	// ArrayFingerprint is the enrolled array-signature liveness model
	// (fused ensemble), when trained.
	ArrayFingerprint json.RawMessage `json:"array_fingerprint,omitempty"`
	// RegistryVersions, when present, records the model-registry
	// version number each blob above was serving as at capture time
	// (keyed by registry.Kind). Restore rebuilds a versioned registry
	// with these numbers, so a capture → restore → capture round trip
	// is byte- and version-stable. Absent for static model sets —
	// these fields are additive, so SnapshotVersion stays 1 and old
	// envelopes restore unchanged.
	RegistryVersions map[string]uint64 `json:"registry_versions,omitempty"`
	// EnsembleMode records whether the fused liveness ensemble was
	// armed (fail-closed liveness) on the captured tenant.
	EnsembleMode bool `json:"ensemble_mode,omitempty"`
}

// blob returns the payload field that carries kind k's model document.
func (p *snapshotPayload) blob(k registry.Kind) *json.RawMessage {
	switch k {
	case registry.KindOrientation:
		return &p.Orientation
	case registry.KindLiveness:
		return &p.Liveness
	}
	return &p.ArrayFingerprint
}

// CaptureTenant snapshots one tenant into an envelope. device and room
// record the enrollment profile (pass "" when unknown). The tenant's
// models are read, not cloned — capture is cheap and safe while the
// tenant keeps serving.
func CaptureTenant(t *pool.Tenant, device, room string) (*Envelope, error) {
	sys := t.System()
	cfg := sys.Config()
	p := snapshotPayload{
		SampleRate:        cfg.SampleRate,
		Mode:              sys.Mode().String(),
		LivenessThreshold: cfg.LivenessThreshold,
		SessionTimeoutMS:  cfg.SessionTimeout.Milliseconds(),
		Features:          cfg.Features,
		ChannelSubset:     cfg.ChannelSubset,
		MinChannels:       cfg.MinChannels,
		Device:            device,
		Room:              room,
	}
	set := sys.ModelSet()
	p.EnsembleMode = set.RequireEnsemble
	reg := t.Models()
	if reg != nil {
		p.RegistryVersions = make(map[string]uint64)
	}
	for _, k := range registry.Kinds() {
		if reg != nil {
			// Registry-managed tenant: embed the stored canonical bytes
			// and version numbers directly. No re-serialization happens,
			// so the blob a restored registry serves is byte-for-byte the
			// blob the source registry served, and re-capture reproduces
			// the same envelope checksum.
			if b, num := reg.ActiveBytes(k); b != nil {
				*p.blob(k) = b
				p.RegistryVersions[string(k)] = num
			}
			continue
		}
		if m := set.Model(k); m != nil {
			doc, err := registry.EncodeModel(k, m)
			if err != nil {
				return nil, fmt.Errorf("cluster: capturing %s model for %q: %w", k, t.ID(), err)
			}
			*p.blob(k) = doc
		}
	}
	if len(set.OrientationByChannels) > 0 {
		p.OrientationByChannels = make(map[string]json.RawMessage, len(set.OrientationByChannels))
		for n, m := range set.OrientationByChannels {
			doc, err := registry.EncodeModel(registry.KindOrientation, m)
			if err != nil {
				return nil, fmt.Errorf("cluster: capturing %d-channel fallback model for %q: %w", n, t.ID(), err)
			}
			p.OrientationByChannels[strconv.Itoa(n)] = doc
		}
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding snapshot payload for %q: %w", t.ID(), err)
	}
	return &Envelope{
		Version:  SnapshotVersion,
		TenantID: t.ID(),
		Checksum: registry.Checksum(payload),
		Payload:  payload,
	}, nil
}

// Verify checks the envelope's format version, identity and payload
// integrity without decoding the payload.
func (e *Envelope) Verify() error {
	if e == nil {
		return fmt.Errorf("%w: nil envelope", ErrSnapshotCorrupt)
	}
	if e.Version != SnapshotVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrSnapshotVersion, e.Version, SnapshotVersion)
	}
	if e.TenantID == "" {
		return fmt.Errorf("%w: envelope names no tenant", ErrSnapshotCorrupt)
	}
	if len(e.Payload) == 0 {
		return fmt.Errorf("%w: empty payload", ErrSnapshotCorrupt)
	}
	if got := registry.Checksum(e.Payload); got != e.Checksum {
		return fmt.Errorf("%w: payload hashes to %s, envelope says %s", ErrSnapshotChecksum, got, e.Checksum)
	}
	return nil
}

// Profile returns the enrollment profile recorded in the envelope
// (device, room; empty when the capturing node knew neither).
func (e *Envelope) Profile() (device, room string, err error) {
	if err := e.Verify(); err != nil {
		return "", "", err
	}
	var p snapshotPayload
	if err := json.Unmarshal(e.Payload, &p); err != nil {
		return "", "", fmt.Errorf("%w: decoding payload: %v", ErrSnapshotCorrupt, err)
	}
	return p.Device, p.Room, nil
}

// BuildSystemWithModels verifies the envelope and rebuilds the
// tenant's core.System from it: model blobs are decoded through their
// typed loaders (corruption and version skew surface as matchable
// errors), thresholds and feature geometry are restored, and the
// captured privacy mode is applied. metricsReg may be nil. Nothing is
// activated here — the caller swaps the system in only after this
// fully succeeds (restore-then-activate).
//
// It also returns the reconstructed model registry when the envelope
// was captured from a registry-managed tenant (nil for static-model
// envelopes). The registry is re-seeded through ImportActive with the
// captured version numbers and canonical bytes, so a restored tenant's
// model_status — and a re-capture — report exactly what the source
// node served.
func BuildSystemWithModels(e *Envelope, metricsReg *metrics.Registry) (*core.System, *registry.Registry, error) {
	if err := e.Verify(); err != nil {
		return nil, nil, err
	}
	var p snapshotPayload
	if err := json.Unmarshal(e.Payload, &p); err != nil {
		return nil, nil, fmt.Errorf("%w: decoding payload: %v", ErrSnapshotCorrupt, err)
	}
	mode, err := core.ParseMode(p.Mode)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	cfg := core.Config{
		SampleRate:        p.SampleRate,
		LivenessThreshold: p.LivenessThreshold,
		SessionTimeout:    time.Duration(p.SessionTimeoutMS) * time.Millisecond,
		Features:          p.Features,
		ChannelSubset:     p.ChannelSubset,
		MinChannels:       p.MinChannels,
		Metrics:           metricsReg,
	}
	var fallbacks map[int]*orientation.Model
	if len(p.OrientationByChannels) > 0 {
		fallbacks = make(map[int]*orientation.Model, len(p.OrientationByChannels))
		for key, blob := range p.OrientationByChannels {
			n, err := strconv.Atoi(key)
			if err != nil || n < 1 {
				return nil, nil, fmt.Errorf("%w: fallback model key %q is not a channel count", ErrSnapshotCorrupt, key)
			}
			m, err := registry.DecodeModel(registry.KindOrientation, blob)
			if err != nil {
				return nil, nil, fmt.Errorf("cluster: snapshot %d-channel fallback model: %w", n, err)
			}
			fallbacks[n] = m.(*orientation.Model)
		}
	}

	var models *registry.Registry
	if len(p.RegistryVersions) > 0 {
		// Registry-managed capture: rebuild a versioned registry from
		// the canonical blobs at their recorded version numbers.
		models = registry.New(registry.Config{Metrics: metricsReg, EnsembleMode: p.EnsembleMode})
		for _, k := range registry.Kinds() {
			blob, num := *p.blob(k), p.RegistryVersions[string(k)]
			if len(blob) == 0 || num == 0 {
				continue
			}
			if err := models.ImportActive(k, num, blob); err != nil {
				return nil, nil, fmt.Errorf("cluster: restoring %s version: %w", k, err)
			}
		}
		cfg.Models = models
		// The degraded-array fallbacks are not registry-versioned;
		// layer them over the registry's sets via a composite provider.
		if len(fallbacks) > 0 {
			cfg.Models = &fallbackProvider{inner: models, fallbacks: fallbacks}
		}
	} else {
		set := registry.ModelSet{RequireEnsemble: p.EnsembleMode, OrientationByChannels: fallbacks}
		for _, k := range registry.Kinds() {
			if blob := *p.blob(k); len(blob) > 0 {
				m, err := registry.DecodeModel(k, blob)
				if err != nil {
					return nil, nil, fmt.Errorf("cluster: snapshot %s model: %w", k, err)
				}
				set.SetModel(m)
			}
		}
		cfg.Models = registry.NewStatic(set)
	}
	if err := checkGeometry(p.Features, p.ChannelSubset, cfg.Models.ModelSet()); err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: rebuilding system: %v", ErrSnapshotCorrupt, err)
	}
	sys.SetMode(mode)
	return sys, models, nil
}

// checkGeometry refuses a feature configuration the restored
// orientation models cannot score, which would otherwise fail every
// decision after restore: a lag window that is not positive, a GCC
// band with no bin below Nyquist (every pair would correlate to zero),
// or a lag window that extracts vectors of another length than a model
// was trained on. The primary model scores the channel subset, or any
// count of at least two channels when the envelope names none; each
// degraded-array fallback scores its own channel count.
func checkGeometry(cfg features.Config, subset []int, set *registry.ModelSet) error {
	if cfg.MaxLag <= 0 {
		return fmt.Errorf("%w: features MaxLag %d is not positive", ErrSnapshotCorrupt, cfg.MaxLag)
	}
	if cfg.SampleRate > 0 && cfg.GCCBandHi > cfg.GCCBandLo && cfg.GCCBandLo >= cfg.SampleRate/2 {
		return fmt.Errorf("%w: features GCC band %g-%g Hz lies above Nyquist at %g Hz",
			ErrSnapshotCorrupt, cfg.GCCBandLo, cfg.GCCBandHi, cfg.SampleRate)
	}
	if m := set.Orientation; m != nil && !scoresDim(cfg, m.FeatureDim(), len(subset)) {
		return fmt.Errorf("%w: features (MaxLag %d) do not extract the orientation model's %d dimensions",
			ErrSnapshotCorrupt, cfg.MaxLag, m.FeatureDim())
	}
	for n, m := range set.OrientationByChannels {
		if !scoresDim(cfg, m.FeatureDim(), n) {
			return fmt.Errorf("%w: features (MaxLag %d) do not extract the %d-channel fallback model's %d dimensions",
				ErrSnapshotCorrupt, cfg.MaxLag, n, m.FeatureDim())
		}
	}
	return nil
}

// scoresDim reports whether cfg extracts d-dimensional vectors from
// nch channels, or from some count of at least two when nch is 0. A
// model that does not know its dimensionality (d 0) fits any config.
func scoresDim(cfg features.Config, d, nch int) bool {
	if d == 0 {
		return true
	}
	// A lag window or chunk count larger than d alone outgrows the
	// vector; rejecting it first also keeps Dim from overflowing.
	if !cfg.DisableReverbFeatures && cfg.MaxLag > d {
		return false
	}
	if !cfg.DisableDirectivityFeatures && !cfg.GCCOnly && cfg.LowBandChunks > d {
		return false
	}
	if nch > 0 {
		return cfg.Dim(nch) == d
	}
	// Dim grows with the channel count unless the pair-wise group is
	// off, in which case the count does not matter.
	for c := 2; ; c++ {
		got := cfg.Dim(c)
		if got == d {
			return true
		}
		if got > d || cfg.DisableReverbFeatures {
			return false
		}
	}
}

// fallbackProvider overlays static degraded-array fallback models on a
// registry-managed provider (the per-channel-count fallbacks are
// enrollment geometry, not versioned registry state). The overlay is
// applied on a copy, preserving the inner set's immutability.
type fallbackProvider struct {
	inner     registry.Provider
	fallbacks map[int]*orientation.Model
}

func (f *fallbackProvider) ModelSet() *registry.ModelSet {
	set := *f.inner.ModelSet()
	set.OrientationByChannels = f.fallbacks
	return &set
}
