package pool

import (
	"fmt"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/registry"
	"headtalk/internal/serve"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
)

// TenantConfig assembles one tenant: a device/room's own decision
// pipeline plus the serving resources that isolate it from every other
// tenant.
type TenantConfig struct {
	// ID names the tenant; routing, metrics prefixes and debug
	// endpoints all key on it. Required, and unique within a pool.
	ID string
	// System is the tenant's trained HeadTalk controller (required).
	// Tenants deliberately do not share a System: each device profile
	// has its own enrollment, feature geometry and session state.
	System *core.System
	// Workers and QueueSize size the tenant's private serving engine
	// (defaults as serve.Config: NumCPU workers, queue 64). The queue
	// is per tenant — one tenant saturating its queue never consumes
	// another tenant's submission slots.
	Workers   int
	QueueSize int
	// BreakerThreshold / BreakerCooldown configure the tenant's private
	// circuit breaker (defaults as serve.Config). A tenant's open
	// breaker rejects only that tenant's traffic.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock abstracts time for the breaker (tests inject a fake).
	Clock func() time.Time
	// Metrics receives the tenant's instrumentation. Nil creates a
	// private registry (the normal case — the pool's aggregation
	// assumes per-tenant registries; sharing one across tenants would
	// sum their counters into the same instruments).
	Metrics *metrics.Registry
	// TraceCapacity / SlowThreshold size the tenant's private trace
	// store (zero values select the trace package defaults);
	// TraceEnabled starts store-wide tracing on.
	TraceCapacity int
	SlowThreshold time.Duration
	TraceEnabled  bool
	// FaultHook is passed through to the tenant's engine (fault
	// injection in tests; leave nil in production).
	FaultHook func(*audio.Recording) *audio.Recording
	// Streaming, when non-nil, attaches a continuous-listening ingest
	// front end to the tenant's engine (see serve.Config.Streaming).
	// Each tenant gets its own session manager — session IDs are scoped
	// to the tenant, and one tenant's session-limit pressure never
	// rejects another tenant's streams. The config is copied per
	// tenant, so one TenantConfig template may be reused.
	Streaming *stream.Config
	// Models is the tenant's versioned model registry, when the
	// System's models are registry-managed. The pool only holds the
	// handle (for model_status/promote/rollback control paths and
	// snapshot capture); the System resolves its models itself through
	// its provider, so a nil Models simply means the tenant runs a
	// static model set.
	Models *registry.Registry
}

// Tenant is one named (System, Engine) pair inside a Pool, with its
// own queue, circuit breaker, metrics registry and trace store. All
// methods are safe for concurrent use.
type Tenant struct {
	id       string
	sys      *core.System
	engine   *serve.Engine
	registry *metrics.Registry
	traces   *trace.Store
	models   *registry.Registry
}

// newTenant validates cfg, builds the tenant's serving stack and
// starts its engine.
func newTenant(cfg TenantConfig) (*Tenant, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("pool: tenant needs an ID")
	}
	if cfg.System == nil {
		return nil, fmt.Errorf("pool: tenant %q needs a core.System", cfg.ID)
	}
	registry := cfg.Metrics
	if registry == nil {
		registry = metrics.NewRegistry()
	}
	traces := trace.NewStore(cfg.TraceCapacity, cfg.SlowThreshold)
	traces.SetEnabled(cfg.TraceEnabled)
	var streaming *stream.Config
	if cfg.Streaming != nil {
		sc := *cfg.Streaming // per-tenant copy: managers must not share state
		streaming = &sc
	}
	engine, err := serve.NewEngine(serve.Config{
		System:           cfg.System,
		Workers:          cfg.Workers,
		QueueSize:        cfg.QueueSize,
		Metrics:          registry,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		Clock:            cfg.Clock,
		FaultHook:        cfg.FaultHook,
		Traces:           traces,
		Streaming:        streaming,
	})
	if err != nil {
		return nil, fmt.Errorf("pool: tenant %q: %w", cfg.ID, err)
	}
	if err := engine.Start(); err != nil {
		return nil, fmt.Errorf("pool: tenant %q: %w", cfg.ID, err)
	}
	return &Tenant{
		id:       cfg.ID,
		sys:      cfg.System,
		engine:   engine,
		registry: registry,
		traces:   traces,
		models:   cfg.Models,
	}, nil
}

// ID returns the tenant's name.
func (t *Tenant) ID() string { return t.id }

// Models returns the tenant's versioned model registry, or nil when
// the tenant serves a static model set.
func (t *Tenant) Models() *registry.Registry { return t.models }

// System returns the tenant's HeadTalk controller (to switch modes,
// read its session state, ...).
func (t *Tenant) System() *core.System { return t.sys }

// Engine returns the tenant's serving engine (ops controls like
// TripBreaker lives there).
func (t *Tenant) Engine() *serve.Engine { return t.engine }

// Metrics returns the tenant's private registry.
func (t *Tenant) Metrics() *metrics.Registry { return t.registry }

// Traces returns the tenant's private trace store.
func (t *Tenant) Traces() *trace.Store { return t.traces }

// Health reports the tenant's serving fitness.
func (t *Tenant) Health() serve.Health { return t.engine.HealthSnapshot() }
