package main

// End-to-end federation tests: two real daemons joined over loopback
// TCP peer listeners, exercising ownership-filtered hosting, forwarded
// decisions, the v3 snapshot/restore migration flow, membership verbs
// and graceful shutdown with dead-peer error surfacing.

import (
	"context"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"headtalk/internal/pool"
)

// findRingTenant returns a tenant id the shared ring assigns to owner.
// Daemons build their ring with the cluster default of 64 virtual
// nodes, so probing an identically-shaped ring here predicts their
// ownership split exactly.
func findRingTenant(t *testing.T, nodes []string, owner string) string {
	t.Helper()
	ring := pool.BuildRing(nodes, 64)
	for i := 0; i < 100000; i++ {
		id := "tenant-" + strconv.Itoa(i)
		if ring.Route(id) == owner {
			return id
		}
	}
	t.Fatalf("no tenant id hashes to node %q", owner)
	return ""
}

// newFederation starts daemons "a" and "b" peered with each other, both
// configured with the same tenant list; the ring decides who hosts
// what. Returns the daemons plus one tenant owned by each.
func newFederation(t *testing.T) (a, b *daemon, tenantA, tenantB string) {
	t.Helper()
	nodes := []string{"a", "b"}
	tenantA = findRingTenant(t, nodes, "a")
	tenantB = findRingTenant(t, nodes, "b")

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	specs := []tenantSpec{{ID: tenantA}, {ID: tenantB}}
	build := func(id string, peers map[string]string) *daemon {
		d, err := newDaemon(daemonOptions{
			Workers:      2,
			QueueSize:    16,
			Mode:         "normal",
			Tenants:      specs,
			MetricsEvery: time.Hour,
			Enroll:       false,
			Seed:         7,
			NodeID:       id,
			Peers:        peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.Close() })
		return d
	}
	a = build("a", map[string]string{"b": lnB.Addr().String()})
	b = build("b", map[string]string{"a": lnA.Addr().String()})
	a.node.ServeLoop(lnA)
	b.node.ServeLoop(lnB)
	return a, b, tenantA, tenantB
}

// TestFederationOwnershipFilter: each daemon enrolls and hosts only the
// tenants the ring assigns to it, never its peer's.
func TestFederationOwnershipFilter(t *testing.T) {
	a, b, tenantA, tenantB := newFederation(t)
	if _, ok := a.pool.Tenant(tenantA); !ok {
		t.Fatalf("daemon a does not host its own tenant %q", tenantA)
	}
	if _, ok := a.pool.Tenant(tenantB); ok {
		t.Fatalf("daemon a hosts %q, which the ring owns to b", tenantB)
	}
	if _, ok := b.pool.Tenant(tenantB); !ok {
		t.Fatalf("daemon b does not host its own tenant %q", tenantB)
	}
	if _, ok := b.pool.Tenant(tenantA); ok {
		t.Fatalf("daemon b hosts %q, which the ring owns to a", tenantA)
	}
}

// TestFederationForwardedDecision: a decision for a peer-owned tenant
// is served by forwarding and marked forwarded:true; locally-owned
// tenants are served in place. Control verbs are never forwarded.
func TestFederationForwardedDecision(t *testing.T) {
	a, _, tenantA, tenantB := newFederation(t)
	resps := runStream(t, a,
		`{"id":"local","tenant":"`+tenantA+`","condition":{}}`+"\n"+
			`{"id":"remote","tenant":"`+tenantB+`","condition":{}}`+"\n"+
			`{"id":"ctl","tenant":"`+tenantB+`","health":true}`+"\n")
	m := byID(resps)
	if r := m["local"]; r.Type != "decision" || r.Forwarded || r.Tenant != tenantA || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("local decision %+v", r)
	}
	if r := m["remote"]; r.Type != "decision" || !r.Forwarded || r.Tenant != tenantB || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("forwarded decision %+v", r)
	}
	r := m["ctl"]
	if r.Type != "error" || r.ErrorKind != "request" || !strings.Contains(r.Error, "owned by node b") {
		t.Fatalf("forwarded control verb %+v, want a node-local rejection naming the owner", r)
	}
}

// TestFederationSnapshotRestoreMigration: snapshot a peer-owned tenant
// through the forwarding path, restore it locally, and watch the same
// tenant id flip from forwarded to locally-served.
func TestFederationSnapshotRestoreMigration(t *testing.T) {
	a, _, _, tenantB := newFederation(t)
	m := byID(runStream(t, a, `{"v":3,"id":"snap","tenant":"`+tenantB+`","snapshot":true}`+"\n"))
	r := m["snap"]
	if r.Type != "snapshot" || !r.Forwarded || r.Envelope == nil {
		t.Fatalf("forwarded snapshot %+v", r)
	}
	env := r.Envelope
	if env.TenantID != tenantB {
		t.Fatalf("envelope tenant %q, want %q", env.TenantID, tenantB)
	}
	if err := env.Verify(); err != nil {
		t.Fatalf("forwarded envelope fails verification: %v", err)
	}

	m = byID(runStream(t, a,
		mustJSON(t, request{V: v(3), ID: "restore", Restore: env})+"\n"+
			`{"id":"after","tenant":"`+tenantB+`","condition":{}}`+"\n"))
	if r := m["restore"]; r.Type != "ok" || r.Tenant != tenantB {
		t.Fatalf("restore response %+v", r)
	}
	if r := m["after"]; r.Type != "decision" || r.Forwarded || r.Tenant != tenantB || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("post-restore decision %+v, want locally served", r)
	}
}

// TestFederationJoinLeaveVerbs: v3 membership verbs work on a federated
// daemon and are rejected on a standalone one; v2 requests may not use
// them at all.
func TestFederationJoinLeaveVerbs(t *testing.T) {
	a, _, _, _ := newFederation(t)
	m := byID(runStream(t, a,
		`{"v":3,"id":"j","join":{"node":"c","addr":"127.0.0.1:1"}}`+"\n"+
			`{"v":3,"id":"l","leave":"c"}`+"\n"+
			`{"v":2,"id":"old","leave":"b"}`+"\n"))
	if r := m["j"]; r.Type != "ok" {
		t.Fatalf("join response %+v", r)
	}
	if r := m["l"]; r.Type != "ok" {
		t.Fatalf("leave response %+v", r)
	}
	if r := m["old"]; r.Type != "error" || r.ErrorKind != "unsupported_version" {
		t.Fatalf("v2 leave response %+v, want the v3 gate", r)
	}

	standalone := testDaemon(t, "normal")
	m = byID(runStream(t, standalone, `{"v":3,"id":"j","join":{"node":"c","addr":"127.0.0.1:1"}}`+"\n"))
	if r := m["j"]; r.Type != "error" || r.ErrorKind != "request" || !strings.Contains(r.Error, "-node-id") {
		t.Fatalf("standalone join response %+v", r)
	}
}

// TestFederationDeadPeerSurfacesTyped: once a peer shuts down, requests
// for its tenants fail with error_kind peer_unavailable instead of
// hanging — and the surviving daemon's local tenants keep serving.
func TestFederationDeadPeerSurfacesTyped(t *testing.T) {
	a, b, tenantA, tenantB := newFederation(t)
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatalf("peer shutdown: %v", err)
	}
	resps := runStream(t, a,
		`{"id":"dead","tenant":"`+tenantB+`","condition":{}}`+"\n"+
			`{"id":"alive","tenant":"`+tenantA+`","condition":{}}`+"\n")
	m := byID(resps)
	r := m["dead"]
	if r.Type != "error" || r.ErrorKind != "peer_unavailable" || !r.Forwarded {
		t.Fatalf("dead-peer response %+v, want forwarded peer_unavailable error", r)
	}
	if r := m["alive"]; r.Type != "decision" || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("local decision after peer death %+v", r)
	}
}

// TestGracefulShutdown: Shutdown stops the TCP listener, drains the
// pool within the ctx bound, and is idempotent.
func TestGracefulShutdown(t *testing.T) {
	d := testDaemon(t, "normal")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.ServeListener(ln)

	// The listener serves before shutdown...
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// ...and refuses connections after.
	if conn, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
	// Idempotent: a second shutdown (and Close) are no-ops.
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close after shutdown: %v", err)
	}
	// Drained pool rejects late work with a typed closed error.
	if _, err := d.tenant(""); err == nil {
		t.Fatal("default tenant still resolvable after drain")
	} else if !strings.Contains(err.Error(), "unknown tenant") {
		// Drain removes tenants; resolution fails as unknown.
		t.Fatalf("post-drain tenant error %v", err)
	}
}

// TestFederationForwardedFrames: back-to-back frames lines for a
// peer-owned tenant are forwarded from goroutines while the connection
// decodes the next line into its reused buffer, so each forward must
// own its samples. Every line opens its own session, which makes each
// outcome independent of the order the forwards land in; the owner's
// outcomes must then match the same lines served locally on the
// owner. Run under -race, a forward reading the reused buffer is also
// reported as a data race.
func TestFederationForwardedFrames(t *testing.T) {
	a, b, _, tenantB := newFederation(t)
	// Whole-utterance pushes alternate with 0.3 s of silence, past the
	// 250 ms silence hangover: one push into a fresh session then
	// already reaches the spotter (or the energy exit), and a forward
	// that read its neighbour's samples would report another outcome.
	var feed [][]float64
	for _, c := range wakeChunks(t, 4) {
		if feed == nil {
			feed = make([][]float64, len(c))
		}
		for ch := range c {
			feed[ch] = append(feed[ch], c[ch]...)
		}
	}
	silence := make([][]float64, len(feed))
	for ch := range silence {
		silence[ch] = make([]float64, 14400)
	}
	chunks := [][][]float64{feed, silence, feed, silence}
	lines := func(prefix string) string {
		var sb strings.Builder
		for i, frame := range chunks {
			sb.WriteString(mustJSON(t, request{V: v(2), ID: strconv.Itoa(i), Tenant: tenantB, Session: prefix + strconv.Itoa(i), Frames: frame}))
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	forwarded := byID(runStream(t, a, lines("f")))
	local := byID(runStream(t, b, lines("l")))
	for i := range chunks {
		id := strconv.Itoa(i)
		f, l := forwarded[id], local[id]
		if f.Type != "stream" || !f.Forwarded || l.Type != "stream" || l.Forwarded {
			t.Fatalf("chunk %s: forwarded %+v, local %+v", id, f, l)
		}
		if f.Status != l.Status || (f.SpotScore == nil) != (l.SpotScore == nil) ||
			(f.SpotScore != nil && *f.SpotScore != *l.SpotScore) {
			t.Errorf("chunk %s: forwarded outcome %s/%v, local %s/%v", id, f.Status, f.SpotScore, l.Status, l.SpotScore)
		}
	}
}
