// Package pool is the multi-tenant serving layer: a pool of named
// tenants, each a (core.System, serve.Engine) pair with its own
// device profile, bounded queue, circuit breaker, metrics registry and
// trace store, behind one Pool API. It is the piece that turns a
// single-array daemon into a fleet front end — heterogeneous devices
// (the paper's D1/D2/D3 prototypes, lab vs. home rooms) share one
// process without sharing any serving state.
//
// Isolation is the design invariant: every queue, breaker, worker set
// and instrument belongs to exactly one tenant, so one tenant's open
// breaker or saturated queue can never reject another tenant's
// requests (internal/pool's fault-injection tests assert this under
// -race). Routing is by explicit tenant ID; a request without one fails
// with ErrNoRoute. Tenants may be added and removed at runtime —
// RemoveTenant unroutes the tenant first, then drains its in-flight
// work exactly once.
package pool

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/fusion"
	"headtalk/internal/metrics"
	"headtalk/internal/serve"
	"headtalk/internal/stream"
)

// Typed errors. Route failures wrap these with the offending tenant
// ID, so match with errors.Is.
var (
	// ErrUnknownTenant: the named tenant is not (or no longer) in the
	// pool.
	ErrUnknownTenant = errors.New("pool: unknown tenant")
	// ErrTenantExists: AddTenant was given an ID already in use.
	ErrTenantExists = errors.New("pool: tenant already exists")
	// ErrPoolClosed: the pool has been drained or closed.
	ErrPoolClosed = errors.New("pool: pool closed")
	// ErrNoRoute: a request named no tenant (empty tenant ID).
	ErrNoRoute = errors.New("pool: no route for anonymous request")
)

// Pool owns N named tenants behind one lookup map. All methods are
// safe for concurrent use.
type Pool struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  atomic.Bool
}

// New returns an empty pool.
func New() *Pool {
	return &Pool{tenants: make(map[string]*Tenant)}
}

// AddTenant builds the tenant's serving stack, starts its engine and
// routes it. It fails with ErrTenantExists (wrapped with the ID) if
// the ID is taken, ErrPoolClosed after Drain/Close.
func (p *Pool) AddTenant(cfg TenantConfig) (*Tenant, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	t, err := newTenant(cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if _, dup := p.tenants[t.id]; dup {
		p.mu.Unlock()
		_ = t.engine.Close()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, t.id)
	}
	if p.closed.Load() {
		// Close raced us between the entry check and the insert; do not
		// leak a running engine into a closed pool.
		p.mu.Unlock()
		_ = t.engine.Close()
		return nil, ErrPoolClosed
	}
	p.tenants[t.id] = t
	p.mu.Unlock()
	return t, nil
}

// RemoveTenant unroutes the tenant — new requests fail with
// ErrUnknownTenant immediately — then drains its queued and in-flight
// work, bounded by ctx. Already-accepted submissions are still
// delivered exactly once. Concurrent removals of the same tenant
// resolve to one winner; the others return ErrUnknownTenant.
func (p *Pool) RemoveTenant(ctx context.Context, id string) error {
	t, ok := p.unroute(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	return t.engine.Drain(ctx)
}

// unroute deletes the tenant from the lookup map and returns it.
func (p *Pool) unroute(id string) (*Tenant, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[id]
	if ok {
		delete(p.tenants, id)
	}
	return t, ok
}

// tenantIDs snapshots the current membership, sorted.
func (p *Pool) tenantIDs() []string {
	p.mu.RLock()
	ids := make([]string, 0, len(p.tenants))
	for id := range p.tenants {
		ids = append(ids, id)
	}
	p.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Tenant looks up a tenant by ID.
func (p *Pool) Tenant(id string) (*Tenant, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.tenants[id]
	return t, ok
}

// Tenants returns the current tenant IDs, sorted.
func (p *Pool) Tenants() []string { return p.tenantIDs() }

// Len returns the current tenant count.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.tenants)
}

// resolve routes a request to its tenant by explicit ID.
func (p *Pool) resolve(tenantID string) (*Tenant, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if tenantID == "" {
		return nil, ErrNoRoute
	}
	t, ok := p.Tenant(tenantID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantID)
	}
	return t, nil
}

// ReplaceTenant atomically swaps in a freshly built tenant for
// cfg.ID: the new serving stack is fully constructed and started
// BEFORE the old tenant (if any) is unrouted, so a failed build leaves
// the existing tenant serving untouched — the restore-then-activate
// contract the cluster snapshot/restore path relies on. The displaced
// tenant's queued and in-flight work is drained exactly once, bounded
// by ctx. With no existing tenant it behaves like AddTenant.
func (p *Pool) ReplaceTenant(ctx context.Context, cfg TenantConfig) (*Tenant, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	t, err := newTenant(cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed.Load() {
		// Close raced us; do not leak a running engine into a closed
		// pool.
		p.mu.Unlock()
		_ = t.engine.Close()
		return nil, ErrPoolClosed
	}
	old := p.tenants[t.id]
	p.tenants[t.id] = t
	p.mu.Unlock()
	if old != nil {
		if err := old.engine.Drain(ctx); err != nil {
			return t, fmt.Errorf("pool: draining replaced tenant %q: %w", t.id, err)
		}
	}
	return t, nil
}

// Decide serves one decision through the named tenant's engine,
// blocking for queue space and the decision, bounded by ctx.
func (p *Pool) Decide(ctx context.Context, tenantID string, rec *audio.Recording) (core.Decision, error) {
	t, err := p.resolve(tenantID)
	if err != nil {
		return core.Decision{}, err
	}
	return t.engine.Decide(ctx, rec)
}

// DecideFused serves one multi-array room-level decision through the
// named tenant's engine: every array's capture runs the pipeline, and
// the per-array posteriors are fused (health-weighted) into a single
// accept/reject.
func (p *Pool) DecideFused(ctx context.Context, tenantID string, arrays []serve.ArrayInput) (fusion.RoomDecision, []fusion.ArrayReport, error) {
	t, err := p.resolve(tenantID)
	if err != nil {
		return fusion.RoomDecision{}, nil, err
	}
	return t.engine.DecideFused(ctx, arrays)
}

// PushFrames feeds one multichannel chunk into the named streaming
// session of the named tenant's engine. Tenants built without
// TenantConfig.Streaming fail with serve.ErrNoStream.
func (p *Pool) PushFrames(ctx context.Context, tenantID, sessionID string, frame [][]float64) (stream.PushResult, error) {
	t, err := p.resolve(tenantID)
	if err != nil {
		return stream.PushResult{}, err
	}
	return t.engine.PushFrames(ctx, sessionID, frame)
}

// EndSession removes one streaming session from the named tenant's
// engine, reporting whether it existed.
func (p *Pool) EndSession(tenantID, sessionID string) (bool, error) {
	t, err := p.resolve(tenantID)
	if err != nil {
		return false, err
	}
	return t.engine.EndSession(sessionID)
}

// Submit enqueues a request on the named tenant's engine with Submit
// semantics: never blocks, ErrQueueFull on that tenant's full queue.
func (p *Pool) Submit(ctx context.Context, tenantID string, req serve.Request) (<-chan serve.Result, error) {
	t, err := p.resolve(tenantID)
	if err != nil {
		return nil, err
	}
	return t.engine.Submit(ctx, req)
}

// Health aggregates per-tenant serving fitness.
type Health struct {
	// Tenants maps tenant ID to its engine health.
	Tenants map[string]serve.Health
	// TenantCount is len(Tenants).
	TenantCount int
	// Healthy is true when the pool is open, has at least one tenant,
	// and every tenant is healthy.
	Healthy bool
	// Closed reports Drain/Close.
	Closed bool
}

// HealthSnapshot reports every tenant's serving fitness plus the
// pool-level rollup.
func (p *Pool) HealthSnapshot() Health {
	h := Health{Tenants: make(map[string]serve.Health), Closed: p.closed.Load()}
	allHealthy := true
	p.mu.RLock()
	for id, t := range p.tenants {
		th := t.Health()
		h.Tenants[id] = th
		allHealthy = allHealthy && th.Healthy
	}
	p.mu.RUnlock()
	h.TenantCount = len(h.Tenants)
	h.Healthy = !h.Closed && h.TenantCount > 0 && allHealthy
	return h
}

// Snapshot merges every tenant's metrics into one view, each
// instrument prefixed "tenant.<id>." so tenants never collide.
func (p *Pool) Snapshot() metrics.Snapshot {
	per := p.TenantSnapshots()
	merged := make([]metrics.Snapshot, 0, len(per))
	for id, s := range per {
		merged = append(merged, s.Prefixed("tenant."+id+"."))
	}
	return metrics.MergeSnapshots(merged...)
}

// TenantSnapshots scrapes each tenant's private registry, keyed by
// tenant ID (the shape metrics.WritePrometheusGrouped consumes).
func (p *Pool) TenantSnapshots() map[string]metrics.Snapshot {
	out := make(map[string]metrics.Snapshot)
	for _, id := range p.tenantIDs() {
		if t, ok := p.Tenant(id); ok {
			out[id] = t.registry.Snapshot()
		}
	}
	return out
}

// Drain stops routing, then drains every tenant's engine, bounded by
// ctx. Safe to call more than once; concurrent calls race to remove
// each tenant and each engine still drains exactly once.
func (p *Pool) Drain(ctx context.Context) error {
	p.closed.Store(true)
	var firstErr error
	for _, id := range p.tenantIDs() {
		t, ok := p.unroute(id)
		if !ok {
			continue
		}
		if err := t.engine.Drain(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("pool: draining tenant %q: %w", id, err)
		}
	}
	return firstErr
}

// Close drains with no deadline.
func (p *Pool) Close() error { return p.Drain(context.Background()) }
