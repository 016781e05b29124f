package pool

import (
	"context"
	"errors"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/serve"
)

// testRecording returns a short 4-channel noise burst — enough to run
// the preprocessing stage without training any gate model.
func testRecording(seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 7))
	rec := audio.NewRecording(48000, 4, 4800)
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = rng.NormFloat64()
		}
	}
	return rec
}

// testTenantConfig builds a minimal tenant over a fresh Normal-mode
// System (decisions are fast and always accepted).
func testTenantConfig(t *testing.T, id string) TenantConfig {
	t.Helper()
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return TenantConfig{ID: id, System: sys, Workers: 2, QueueSize: 8}
}

func newTestPool(t *testing.T, ids ...string) *Pool {
	t.Helper()
	p := New()
	t.Cleanup(func() { _ = p.Close() })
	for _, id := range ids {
		if _, err := p.AddTenant(testTenantConfig(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPoolAddDecideRemove(t *testing.T) {
	p := newTestPool(t, "lab", "home")
	if got := p.Tenants(); len(got) != 2 || got[0] != "home" || got[1] != "lab" {
		t.Fatalf("tenants = %v", got)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	for _, id := range []string{"lab", "home"} {
		d, err := p.Decide(context.Background(), id, testRecording(1))
		if err != nil {
			t.Fatalf("decide %s: %v", id, err)
		}
		if !d.Accepted {
			t.Fatalf("decide %s: %+v", id, d)
		}
	}
	if _, err := p.Decide(context.Background(), "ghost", testRecording(2)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant decide = %v, want ErrUnknownTenant", err)
	}
	if err := p.RemoveTenant(context.Background(), "lab"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decide(context.Background(), "lab", testRecording(3)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("removed tenant decide = %v, want ErrUnknownTenant", err)
	}
	if err := p.RemoveTenant(context.Background(), "lab"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("double remove = %v, want ErrUnknownTenant", err)
	}
	if p.Len() != 1 {
		t.Fatalf("len after remove = %d", p.Len())
	}
}

func TestPoolDuplicateTenant(t *testing.T) {
	p := newTestPool(t, "lab")
	_, err := p.AddTenant(testTenantConfig(t, "lab"))
	if !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate add = %v, want ErrTenantExists", err)
	}
	if !strings.Contains(err.Error(), `"lab"`) {
		t.Fatalf("duplicate add error should name the tenant: %v", err)
	}
}

func TestTenantConfigValidation(t *testing.T) {
	p := newTestPool(t)
	if _, err := p.AddTenant(TenantConfig{}); err == nil {
		t.Fatal("tenant without ID should fail")
	}
	if _, err := p.AddTenant(TenantConfig{ID: "x"}); err == nil {
		t.Fatal("tenant without System should fail")
	}
}

// TestPoolEmptyTenantIDIsNoRoute: every entry point refuses a request
// that names no tenant, even with tenants in the pool.
func TestPoolEmptyTenantIDIsNoRoute(t *testing.T) {
	p := newTestPool(t, "lab")
	ctx := context.Background()
	chunk := [][]float64{make([]float64, 480), make([]float64, 480)}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Decide", func() error {
			_, err := p.Decide(ctx, "", testRecording(4))
			return err
		}},
		{"DecideFused", func() error {
			_, _, err := p.DecideFused(ctx, "", []serve.ArrayInput{{Recording: testRecording(5)}})
			return err
		}},
		{"Submit", func() error {
			_, err := p.Submit(ctx, "", serve.Request{ID: "r", Recording: testRecording(6)})
			return err
		}},
		{"PushFrames", func() error {
			_, err := p.PushFrames(ctx, "", "s", chunk)
			return err
		}},
		{"EndSession", func() error {
			_, err := p.EndSession("", "s")
			return err
		}},
	} {
		if err := tc.call(); !errors.Is(err, ErrNoRoute) {
			t.Errorf("%s with empty tenant ID = %v, want ErrNoRoute", tc.name, err)
		}
	}
}

// TestRingConsistentHashing: a key always lands on the same member,
// every member owns part of the ring, and dropping a member remaps only
// the keys it owned.
func TestRingConsistentHashing(t *testing.T) {
	r := BuildRing([]string{"lab", "home", "office"}, 0)
	owners := map[string]int{}
	before := map[string]string{}
	for i := 0; i < 300; i++ {
		k := "key-" + strconv.Itoa(i)
		owner := r.Route(k)
		if owner == "" || r.Route(k) != owner {
			t.Fatalf("key %q routed to %q, then %q", k, owner, r.Route(k))
		}
		owners[owner]++
		before[k] = owner
	}
	for _, id := range []string{"lab", "home", "office"} {
		if owners[id] == 0 {
			t.Fatalf("member %s owns no keys: %v", id, owners)
		}
	}
	r = BuildRing([]string{"lab", "home"}, 0)
	for k, owner := range before {
		got := r.Route(k)
		if owner != "office" && got != owner {
			t.Fatalf("key %q moved %q -> %q though its owner survived", k, owner, got)
		}
		if got == "office" {
			t.Fatalf("key %q still routed to removed member", k)
		}
	}
}

func TestPoolClosedSemantics(t *testing.T) {
	p := newTestPool(t, "lab")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decide(context.Background(), "lab", testRecording(6)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("decide after close = %v, want ErrPoolClosed", err)
	}
	if _, err := p.AddTenant(testTenantConfig(t, "late")); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("add after close = %v, want ErrPoolClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
	h := p.HealthSnapshot()
	if h.Healthy || !h.Closed || h.TenantCount != 0 {
		t.Fatalf("closed pool health %+v", h)
	}
}

func TestPoolHealthSnapshot(t *testing.T) {
	p := newTestPool(t)
	if h := p.HealthSnapshot(); h.Healthy {
		t.Fatalf("empty pool should not be healthy: %+v", h)
	}
	p = newTestPool(t, "lab", "home")
	h := p.HealthSnapshot()
	if !h.Healthy || h.TenantCount != 2 {
		t.Fatalf("health %+v", h)
	}
	for _, id := range []string{"lab", "home"} {
		th, ok := h.Tenants[id]
		if !ok || !th.Healthy || th.State != "running" {
			t.Fatalf("tenant %s health %+v", id, th)
		}
	}
	// One tenant's tripped breaker degrades the rollup but not the
	// other tenant's entry.
	lab, _ := p.Tenant("lab")
	lab.Engine().TripBreaker()
	h = p.HealthSnapshot()
	if h.Healthy {
		t.Fatalf("pool with open breaker should not roll up healthy: %+v", h)
	}
	if !h.Tenants["home"].Healthy {
		t.Fatalf("home must stay healthy: %+v", h.Tenants["home"])
	}
	if h.Tenants["lab"].Breaker != "open" {
		t.Fatalf("lab breaker %q, want open", h.Tenants["lab"].Breaker)
	}
}

func TestPoolSnapshotPrefixesTenants(t *testing.T) {
	p := newTestPool(t, "lab", "home")
	for i := 0; i < 3; i++ {
		if _, err := p.Decide(context.Background(), "lab", testRecording(uint64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Decide(context.Background(), "home", testRecording(20)); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if got := s.Counters["tenant.lab.serve.completed.total"]; got != 3 {
		t.Fatalf("lab completed = %d, want 3 (counters %v)", got, s.Counters)
	}
	if got := s.Counters["tenant.home.serve.completed.total"]; got != 1 {
		t.Fatalf("home completed = %d, want 1", got)
	}
	per := p.TenantSnapshots()
	if len(per) != 2 {
		t.Fatalf("tenant snapshots %v", per)
	}
	if per["lab"].Counters["serve.completed.total"] != 3 {
		t.Fatalf("per-tenant lab snapshot %v", per["lab"].Counters)
	}

	// The per-tenant map renders as a labeled Prometheus exposition.
	var b strings.Builder
	if err := metrics.WritePrometheusGrouped(&b, "tenant", per); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`serve_completed_total{tenant="lab"} 3`,
		`serve_completed_total{tenant="home"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("grouped exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := BuildRing(nil, 0).Route("k"); got != "" {
		t.Fatalf("empty ring routed to %q", got)
	}
	r := BuildRing([]string{"only"}, 4)
	for _, k := range []string{"a", "b", "c"} {
		if got := r.Route(k); got != "only" {
			t.Fatalf("single-tenant ring routed %q to %q", k, got)
		}
	}
}

func TestRingRouteN(t *testing.T) {
	r := BuildRing([]string{"a", "b", "c"}, 16)
	for _, k := range []string{"k1", "k2", "k3", "k4"} {
		got := r.RouteN(k, 2)
		if len(got) != 2 {
			t.Fatalf("RouteN(%q, 2) = %v", k, got)
		}
		if got[0] != r.Route(k) {
			t.Fatalf("RouteN first entry %q != owner %q", got[0], r.Route(k))
		}
		if got[1] == got[0] {
			t.Fatalf("RouteN successor duplicates owner: %v", got)
		}
	}
	if got := r.RouteN("k", 10); len(got) != 3 {
		t.Fatalf("RouteN capped at member count: %v", got)
	}
	if got := (*Ring)(nil).RouteN("k", 2); got != nil {
		t.Fatalf("nil ring RouteN = %v", got)
	}
}

func TestReplaceTenantSwapsAtomically(t *testing.T) {
	p := newTestPool(t, "x")
	oldT, _ := p.Tenant("x")
	newT, err := p.ReplaceTenant(context.Background(), testTenantConfig(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Tenant("x"); got != newT {
		t.Fatalf("pool still routes to the old tenant")
	}
	// The displaced engine is drained: new submissions fail closed.
	if _, err := oldT.Engine().Decide(context.Background(), testRecording(1)); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("old engine not drained: %v", err)
	}
	// The replacement serves.
	if _, err := p.Decide(context.Background(), "x", testRecording(2)); err != nil {
		t.Fatalf("replacement tenant decide: %v", err)
	}
	// A failed build must leave the current tenant serving.
	if _, err := p.ReplaceTenant(context.Background(), TenantConfig{ID: "x"}); err == nil {
		t.Fatal("ReplaceTenant with no System should fail")
	}
	if _, err := p.Decide(context.Background(), "x", testRecording(3)); err != nil {
		t.Fatalf("tenant lost after failed replace: %v", err)
	}
}
