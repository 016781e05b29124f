// Package headtalk is the public API of the HeadTalk reproduction: a
// speaker-orientation-aware privacy control for voice assistants
// (Zhang, Sabir & Das, DSN 2023).
//
// A HeadTalk System gates wake words behind two acoustic checks run on
// the assistant's own microphone array:
//
//  1. Liveness — was the sound produced by a live human rather than
//     replayed through a loudspeaker? (spectral high-band analysis via
//     a small convolutional network)
//  2. Orientation — was the human facing the device when speaking?
//     (SRP-PHAT / GCC-PHAT reverberation features plus speech
//     directivity features, classified by an RBF SVM)
//
// Because this reproduction has no physical microphone arrays, the
// package also exposes the full acoustic simulation stack used to
// generate training and evaluation data: a formant speech synthesizer,
// frequency-banded source directivity, an image-source room simulator
// and models of the paper's three prototype devices. See DESIGN.md for
// the substitution inventory.
//
// # Quickstart
//
//	sys, err := headtalk.NewSystem(headtalk.Config{
//		Models: headtalk.NewStaticModels(headtalk.ModelSet{
//			Liveness:    livenessDetector,
//			Orientation: orientationModel,
//		}),
//	})
//	sys.SetMode(headtalk.ModeHeadTalk)
//	decision, err := sys.ProcessWake(ctx, recording)
//	if decision.Accepted { /* forward audio to the cloud */ }
//
// See examples/quickstart for a complete runnable program that
// synthesizes its own enrollment data.
package headtalk

import (
	"context"
	"io"
	"math/rand/v2"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/cluster"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/features"
	"headtalk/internal/fusion"
	"headtalk/internal/liveness"
	"headtalk/internal/metrics"
	"headtalk/internal/mic"
	"headtalk/internal/orientation"
	"headtalk/internal/pool"
	"headtalk/internal/registry"
	"headtalk/internal/room"
	"headtalk/internal/serve"
	"headtalk/internal/speech"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
	"headtalk/internal/va"
)

// Core system types.
type (
	// System is the HeadTalk privacy controller (mode state machine +
	// liveness and orientation gates).
	System = core.System
	// Config assembles a System.
	Config = core.Config
	// Mode is the privacy mode (Normal / Mute / HeadTalk).
	Mode = core.Mode
	// Decision is the outcome of processing one wake word.
	Decision = core.Decision
	// Reason explains a Decision.
	Reason = core.Reason
)

// Privacy modes (paper Fig. 1).
const (
	ModeNormal   = core.ModeNormal
	ModeMute     = core.ModeMute
	ModeHeadTalk = core.ModeHeadTalk
)

// NewSystem validates cfg and returns a controller in Normal mode.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Serving layer: the concurrent decision engine and its
// instrumentation (see internal/serve and internal/metrics).
type (
	// Engine is a pool of decision workers over one System, with a
	// bounded submission queue and explicit backpressure.
	Engine = serve.Engine
	// EngineConfig sizes an Engine (workers, queue, metrics).
	EngineConfig = serve.Config
	// ServeRequest is one decision submission.
	ServeRequest = serve.Request
	// ServeResult is the outcome of a served submission.
	ServeResult = serve.Result
	// Preprocessor is per-goroutine DSP state for the band-pass stage.
	Preprocessor = core.Preprocessor
	// MetricsRegistry collects counters, gauges and latency
	// histograms; share one between Config.Metrics and
	// EngineConfig.Metrics to scrape the whole pipeline at once.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time scrape of a registry.
	MetricsSnapshot = metrics.Snapshot
	// StreamConfig attaches a continuous-listening ingest front end to
	// an engine (EngineConfig.Streaming): per-session ring buffers, a
	// hop framer feeding online wake-word spotting, and early-exit
	// gating ahead of the full pipeline (see internal/stream).
	StreamConfig = stream.Config
	// StreamManager owns an engine's streaming sessions (Engine.Streams).
	StreamManager = stream.Manager
	// StreamPushResult reports how far one pushed chunk got through the
	// early-exit cascade (Engine.PushFrames).
	StreamPushResult = stream.PushResult
	// SpeakerTrackerConfig enables cross-utterance speaker tracking on
	// a stream manager (StreamConfig.Speakers): spotted candidates are
	// clustered into speaker tracks by TDoA signature, carrying
	// orientation history and facing state across utterances.
	SpeakerTrackerConfig = stream.TrackerConfig
	// SpeakerInfo is the tracked-speaker snapshot attached to spotted
	// and decided push results.
	SpeakerInfo = stream.SpeakerInfo
)

// Multi-array decision fusion (see internal/fusion): several arrays
// hear the same utterance and each reports a signed orientation margin
// and live score; fusing them health-weighted into one room-level
// accept/reject beats any single array. Engine.DecideFused and
// Pool.DecideFused serve the fused path.
type (
	// FusionArrayInput is one array's capture for Engine.DecideFused.
	FusionArrayInput = serve.ArrayInput
	// FusionArrayReport is one array's per-decision contribution.
	FusionArrayReport = fusion.ArrayReport
	// RoomDecision is the fused room-level outcome.
	RoomDecision = fusion.RoomDecision
	// ArrayHealth is a per-channel health assessment (mic.AssessHealth);
	// FusionHealthWeight turns one into a fusion vote weight.
	ArrayHealth = mic.ArrayHealth
)

// Fuse combines per-array reports into one room-level decision,
// failing closed when no trustworthy evidence survives.
func Fuse(reports []FusionArrayReport) RoomDecision {
	return fusion.Fuse(reports)
}

// FusionHealthWeight converts an explicit mic.AssessHealth result into
// a fusion vote weight (the healthy-channel fraction).
func FusionHealthWeight(h ArrayHealth) float64 { return fusion.HealthWeight(h) }

// Error taxonomy. Every failure the serving stack reports is either a
// sentinel (match with errors.Is) or a typed error carrying detail
// (match with errors.As); see the README's error table for the full
// map. Sentinels:
var (
	// ErrQueueFull is the engine's backpressure signal: the bounded
	// submission queue is at capacity. errors.Is(err, ErrQueueFull).
	ErrQueueFull = serve.ErrQueueFull
	// ErrEngineClosed is returned once an engine drains or closes.
	ErrEngineClosed = serve.ErrClosed
	// ErrBreakerOpen marks decisions rejected fast while an engine's
	// circuit breaker is open after repeated pipeline failures.
	ErrBreakerOpen = serve.ErrBreakerOpen
	// ErrUnknownTenant is a pool routing failure: the named tenant is
	// not (or no longer) hosted. The returned error wraps this sentinel
	// with the tenant ID; match with errors.Is.
	ErrUnknownTenant = pool.ErrUnknownTenant
	// ErrTenantExists rejects AddTenant calls reusing a live ID.
	ErrTenantExists = pool.ErrTenantExists
	// ErrPoolClosed is returned by pool operations after Drain/Close.
	ErrPoolClosed = pool.ErrPoolClosed
	// ErrNoRoute rejects a pool request that names no tenant (empty
	// tenant ID).
	ErrNoRoute = pool.ErrNoRoute
	// ErrNoStream rejects streaming calls on an engine built without
	// EngineConfig.Streaming.
	ErrNoStream = serve.ErrNoStream
	// ErrStreamSessionLimit rejects new streaming sessions while a
	// manager is at MaxSessions with no idle session to evict.
	ErrStreamSessionLimit = stream.ErrSessionLimit
	// ErrBadFrame rejects a malformed streamed chunk (wrong channel
	// count, ragged or non-finite samples, longer than the window).
	ErrBadFrame = stream.ErrBadFrame
)

// Typed errors: match with errors.As and branch on their fields.
type (
	// ErrBadInput is the input-hardening reject (too short, too long,
	// non-finite or clipped samples); its Reason field classifies the
	// fault. Use AsBadInput or errors.As.
	ErrBadInput = audio.ErrBadInput
	// ErrMalformedWAV reports an undecodable WAV stream; its Reason
	// field names the structural fault.
	ErrMalformedWAV = audio.ErrMalformedWAV
	// ErrPipelinePanic carries a recovered decision-pipeline panic
	// (value + stack). The submission fails closed; the worker
	// survives. Use IsPanic or errors.As.
	ErrPipelinePanic = serve.ErrPipelinePanic
)

// IsPanic reports whether err chains to an *ErrPipelinePanic.
func IsPanic(err error) bool { return serve.IsPanic(err) }

// AsBadInput unwraps err to an *ErrBadInput if one is in its chain.
func AsBadInput(err error) (*ErrBadInput, bool) { return audio.AsBadInput(err) }

// NewEngine validates cfg and returns a decision engine; call Start
// before submitting and Close (or Drain) to finish in-flight work.
func NewEngine(cfg EngineConfig) (*Engine, error) { return serve.NewEngine(cfg) }

// Multi-tenant serving (see internal/pool): one process hosting many
// named (System, Engine) pairs — per-device or per-room profiles —
// each with its own queue, circuit breaker, metrics registry and trace
// store, behind a single routing API. One tenant's saturation or open
// breaker never rejects another tenant's requests.
type (
	// Pool is the multi-tenant serving pool.
	Pool = pool.Pool
	// PoolTenant is one hosted (System, Engine) pair.
	PoolTenant = pool.Tenant
	// TenantConfig assembles one tenant for Pool.AddTenant.
	TenantConfig = pool.TenantConfig
	// PoolHealth aggregates every tenant's serving fitness.
	PoolHealth = pool.Health
	// EngineHealth is one engine's serving fitness (also the per-tenant
	// entry inside PoolHealth).
	EngineHealth = serve.Health
)

// NewPool returns an empty multi-tenant serving pool; add tenants with
// AddTenant and route with Decide/Submit.
func NewPool() *Pool { return pool.New() }

// Federated multi-node serving (see internal/cluster): tenants are
// partitioned across nodes on a consistent-hash ring; each node serves
// its own tenants locally and forwards everyone else's to the owning
// peer with deadlines, retries, one hedged attempt and a per-peer
// circuit breaker. Dead peers are probed out of the ring; tenants move
// between nodes as versioned, checksummed snapshot envelopes.
type (
	// ClusterNode federates one serving pool with its peers.
	ClusterNode = cluster.Node
	// ClusterConfig assembles a ClusterNode (identity, peers, timeouts,
	// retry/hedge policy, breaker sizing).
	ClusterConfig = cluster.Config
	// ClusterEnvelope is one tenant's portable serving state: versioned,
	// checksummed, safe to store and replay into Restore.
	ClusterEnvelope = cluster.Envelope
	// ClusterPeerStatus reports one peer's membership view.
	ClusterPeerStatus = cluster.PeerStatus
	// ClusterPeerHealth is the probe-driven peer lifecycle state.
	ClusterPeerHealth = cluster.PeerHealth
	// ClusterRemoteError is a failure the owning peer reported: the wire
	// worked, the operation did not. Its Kind mirrors the daemon's
	// error_kind taxonomy. Never retried, never trips the breaker.
	ClusterRemoteError = cluster.RemoteError
)

// Peer lifecycle states (alive → suspect → down).
const (
	PeerAlive   = cluster.PeerAlive
	PeerSuspect = cluster.PeerSuspect
	PeerDown    = cluster.PeerDown
)

// ClusterSnapshotVersion is the newest snapshot envelope format.
const ClusterSnapshotVersion = cluster.SnapshotVersion

var (
	// ErrPeerUnavailable marks a forward that could not reach a live
	// owner (dead peer, open breaker, exhausted retries, no candidates).
	// The tenant's owner may recover; the caller should back off.
	ErrPeerUnavailable = cluster.ErrPeerUnavailable
	// ErrSnapshotVersion rejects an envelope from a newer format.
	ErrSnapshotVersion = cluster.ErrSnapshotVersion
	// ErrSnapshotChecksum rejects an envelope whose payload does not
	// match its recorded checksum.
	ErrSnapshotChecksum = cluster.ErrSnapshotChecksum
)

// NewClusterNode validates cfg and returns a federation node over the
// given pool; call Start to begin peer health probing and Close to
// leave the ring.
func NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.NewNode(cfg) }

// CaptureTenant snapshots one hosted tenant into a portable envelope
// (models, thresholds, mode, device/room profile).
func CaptureTenant(t *PoolTenant, device, room string) (*ClusterEnvelope, error) {
	return cluster.CaptureTenant(t, device, room)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Per-decision tracing (see internal/trace): stage-by-stage latency
// breakdowns of individual decisions, off by default and free when off.
type (
	// Trace is one decision's ordered stage spans plus its outcome.
	Trace = trace.Trace
	// TraceRecorder accumulates spans for one decision; attach it to a
	// context with WithTrace. All methods are no-ops on nil.
	TraceRecorder = trace.Recorder
	// TraceStore retains recent and slow finished traces in fixed-size
	// rings; pass one as EngineConfig.Traces for engine auto-tracing.
	TraceStore = trace.Store
)

// NewTraceStore returns a trace store holding up to capacity recent
// traces (0: default 256) and always retaining decisions at least
// slowThreshold slow (0: default 250ms, negative: disabled).
func NewTraceStore(capacity int, slowThreshold time.Duration) *TraceStore {
	return trace.NewStore(capacity, slowThreshold)
}

// NewTraceRecorder returns a recorder for a single decision.
func NewTraceRecorder(id string) *TraceRecorder { return trace.NewRecorder(id) }

// WithTrace attaches a recorder to ctx; System.ProcessWake and
// Engine submissions record stage spans into it.
func WithTrace(ctx context.Context, r *TraceRecorder) context.Context {
	return trace.NewContext(ctx, r)
}

// TraceFrom extracts the recorder carried by ctx, or nil.
func TraceFrom(ctx context.Context) *TraceRecorder { return trace.FromContext(ctx) }

// Audio types.
type (
	// Recording is a multi-channel microphone-array capture.
	Recording = audio.Recording
	// Buffer is a mono signal at a known sample rate.
	Buffer = audio.Buffer
)

// NewRecording returns a zeroed recording with the given channel count
// and per-channel length.
func NewRecording(sampleRate float64, channels, n int) *Recording {
	return audio.NewRecording(sampleRate, channels, n)
}

// ReadWAV decodes a 16-bit PCM (multi-channel) WAV stream. It is
// hardened against hostile input: bounded allocation, no panics, and
// typed *ErrMalformedWAV failures.
func ReadWAV(r io.Reader) (*Recording, error) { return audio.ReadWAV(r) }

// WriteWAV encodes a recording as 16-bit PCM WAV.
func WriteWAV(w io.Writer, rec *Recording) error { return audio.WriteWAV(w, rec) }

// Liveness detection.
type (
	// LivenessDetector distinguishes live humans from mechanical
	// speakers.
	LivenessDetector = liveness.Detector
	// ArrayFingerprint is the per-array spectral-signature liveness
	// gate: the long-term coloration the enrolled microphone array
	// imprints on everything it captures. Replayed audio crosses an
	// extra electro-acoustic chain and deviates from the signature.
	ArrayFingerprint = liveness.ArrayFingerprint
	// FingerprintConfig tunes array-fingerprint enrollment.
	FingerprintConfig = liveness.FingerprintConfig
)

// NewLivenessDetector returns an untrained detector seeded for
// reproducibility.
func NewLivenessDetector(seed uint64) *LivenessDetector {
	return liveness.NewDetector(seed)
}

// TrainArrayFingerprint learns an array's spectral signature from live
// enrollment captures (at least two, all from the same array).
func TrainArrayFingerprint(recs []*Recording, cfg FingerprintConfig) (*ArrayFingerprint, error) {
	return liveness.TrainArrayFingerprint(recs, cfg)
}

// Versioned model management (see internal/registry): an immutable,
// per-tenant model store with atomic hot-swap and rollback, shadow
// evaluation of candidate versions, online adaptation from accepted
// decisions, and drift detection. Attach one as Config.Models — the
// System resolves all of its gates through the registry with a single
// atomic load per decision, so promote/rollback never expose a torn
// model set and never require draining the serving engine.
type (
	// Registry is the versioned model store (implements ModelProvider).
	Registry = registry.Registry
	// RegistryConfig tunes a Registry (metrics, retention, adaptation,
	// drift detection, ensemble arming).
	RegistryConfig = registry.Config
	// ModelSet is one immutable view of every model a decision needs.
	ModelSet = registry.ModelSet
	// ModelProvider resolves the current ModelSet (Config.Models).
	ModelProvider = registry.Provider
	// StaticModels is the zero-machinery provider: one fixed ModelSet.
	StaticModels = registry.Static
	// ModelKind names a managed model family.
	ModelKind = registry.Kind
	// ModelState is a version's lifecycle position
	// (candidate → shadow → active → archived).
	ModelState = registry.State
	// ModelEnvelope is one sealed, checksummed model document — the
	// serialization enrollment artifacts and registries share.
	ModelEnvelope = registry.Envelope
	// ModelKindStatus summarizes one family's versions and lifecycle.
	ModelKindStatus = registry.KindStatus
	// ModelVersionInfo is one version's metadata.
	ModelVersionInfo = registry.VersionInfo
	// AdaptConfig tunes online adaptation from accepted decisions.
	AdaptConfig = registry.AdaptConfig
	// DriftConfig tunes the score-distribution drift detector.
	DriftConfig = registry.DriftConfig
	// DriftState is the drift detector's observable state.
	DriftState = registry.DriftState
)

// Managed model families.
const (
	KindOrientation      = registry.KindOrientation
	KindLiveness         = registry.KindLiveness
	KindArrayFingerprint = registry.KindArrayFingerprint
)

// Model version lifecycle states.
const (
	ModelStateCandidate = registry.StateCandidate
	ModelStateShadow    = registry.StateShadow
	ModelStateActive    = registry.StateActive
	ModelStateArchived  = registry.StateArchived
)

var (
	// ErrModelVersion rejects a model envelope from an unsupported
	// format version.
	ErrModelVersion = registry.ErrModelVersion
	// ErrModelCorrupt rejects a model envelope whose payload fails its
	// checksum or cannot decode.
	ErrModelCorrupt = registry.ErrModelCorrupt
)

// NewRegistry returns an empty versioned model registry.
func NewRegistry(cfg RegistryConfig) *Registry { return registry.New(cfg) }

// NewStaticModels wraps a fixed model set in a provider — the
// compatibility bridge for configurations that do not need versioning.
func NewStaticModels(set ModelSet) *StaticModels { return registry.NewStatic(set) }

// Orientation detection.
type (
	// OrientationModel classifies facing vs non-facing utterances.
	OrientationModel = orientation.Model
	// OrientationConfig parameterizes model training.
	OrientationConfig = orientation.ModelConfig
	// FacingDefinition is a Table III facing/non-facing arc
	// assignment.
	FacingDefinition = orientation.Definition
	// FeatureConfig controls orientation feature extraction.
	FeatureConfig = features.Config
)

// Orientation labels.
const (
	LabelNonFacing = orientation.LabelNonFacing
	LabelFacing    = orientation.LabelFacing
)

// Definition4 is the paper's winning facing/non-facing definition,
// used by default throughout.
var Definition4 = orientation.Definition4

// TrainOrientationModel fits the facing/non-facing SVM on feature
// vectors and labels.
func TrainOrientationModel(x [][]float64, y []int, cfg OrientationConfig) (*OrientationModel, error) {
	return orientation.Train(x, y, cfg)
}

// ExtractOrientationFeatures computes the paper's §III-B3 feature
// vector from a preprocessed multi-channel recording.
func ExtractOrientationFeatures(rec *Recording, cfg FeatureConfig) ([]float64, error) {
	return features.Extract(rec, cfg)
}

// DefaultFeatureConfig returns the feature configuration for a GCC lag
// window (±13 samples for the D2 array at 48 kHz).
func DefaultFeatureConfig(maxLag int, sampleRate float64) FeatureConfig {
	return features.DefaultConfig(maxLag, sampleRate)
}

// Simulation and synthetic data.
type (
	// Condition fully specifies one synthetic capture (room, device,
	// wake word, geometry, noise, replay source, ...).
	Condition = dataset.Condition
	// Sample is a generated capture: features plus optional waveform.
	Sample = dataset.Sample
	// Generator renders Conditions into Samples deterministically.
	Generator = dataset.Generator
	// Array is a prototype device's microphone array.
	Array = mic.Array
	// VoiceProfile is a synthetic speaker voice.
	VoiceProfile = speech.VoiceProfile
	// WakeWord is a scripted utterance.
	WakeWord = speech.WakeWord
	// Room is a shoebox room model.
	Room = room.Room
)

// NewGenerator returns a deterministic synthetic-corpus generator.
func NewGenerator(seed uint64) *Generator { return dataset.NewGenerator(seed) }

// Prototype devices (paper Table I).
func DeviceD1() *Array { return mic.DeviceD1() }
func DeviceD2() *Array { return mic.DeviceD2() }
func DeviceD3() *Array { return mic.DeviceD3() }

// Rooms from the paper's two environments.
func LabRoom() Room  { return room.LabRoom() }
func HomeRoom() Room { return room.HomeRoom() }

// The paper's wake words.
var (
	WordComputer     = speech.WordComputer
	WordAmazon       = speech.WordAmazon
	WordHeyAssistant = speech.WordHeyAssistant
)

// SynthesizeWakeWord renders a wake word with the given voice at
// sample rate fs.
func SynthesizeWakeWord(word WakeWord, voice VoiceProfile, fs float64, rng *rand.Rand) *Buffer {
	return speech.Synthesize(word, voice, fs, rng)
}

// DefaultVoice returns a neutral adult voice; RandomVoice draws a
// plausible speaker.
func DefaultVoice() VoiceProfile              { return speech.DefaultVoice() }
func RandomVoice(rng *rand.Rand) VoiceProfile { return speech.RandomVoice(rng) }

// Voice assistant simulation.
type (
	// Assistant wires a wake-word spotter to a HeadTalk controller and
	// logs cloud uploads.
	Assistant = va.Assistant
	// Spotter is a template-matching wake-word detector.
	Spotter = va.Spotter
	// Response is the assistant's reaction to audio.
	Response = va.Response
	// Decider is the decision backend an Assistant routes wake words
	// through — a System directly, or an Engine to share its worker
	// pool (Assistant.UseDecider).
	Decider = va.Decider
)

// NewSpotter builds a wake-word spotter from synthesized templates.
func NewSpotter(word WakeWord, numTemplates int, seed uint64) (*Spotter, error) {
	return va.NewSpotter(word, numTemplates, seed)
}

// NewAssistant wires a spotter and a HeadTalk system into a simulated
// voice assistant.
func NewAssistant(name string, spotter *Spotter, sys *System) (*Assistant, error) {
	return va.NewAssistant(name, spotter, sys, nil)
}
