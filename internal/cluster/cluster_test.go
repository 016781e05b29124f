package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net"
	"strconv"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/orientation"
	"headtalk/internal/pool"
	"headtalk/internal/registry"
)

// testRecording is a short 4-channel noise burst — enough to run the
// decision pipeline on a Normal-mode tenant.
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

// markedRecording builds a 4-channel recording whose inter-channel
// coherence differs by class (same construction as the core tests):
// "facing" shares one delayed source across channels, "non-facing" is
// independent noise.
func markedRecording(facing bool, seed uint64) *audio.Recording {
	rng := rand.New(rand.NewPCG(seed, 99))
	n := 24000
	rec := audio.NewRecording(48000, 4, n)
	if facing {
		src := make([]float64, n+8)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		for c := 0; c < 4; c++ {
			copy(rec.Channels[c], src[c:c+n])
			for i := range rec.Channels[c] {
				rec.Channels[c][i] += 0.1 * rng.NormFloat64()
			}
		}
	} else {
		for c := 0; c < 4; c++ {
			for i := range rec.Channels[c] {
				rec.Channels[c][i] = rng.NormFloat64()
			}
		}
	}
	return rec
}

// plainSystem is a Normal-mode system with no trained gates.
func plainSystem(t testing.TB) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// trainedSystem is a HeadTalk-mode system with a real orientation gate
// trained on extracted features, so snapshots carry a model blob and a
// restored system actually runs the gate.
func trainedSystem(t testing.TB) *core.System {
	t.Helper()
	featCfg := features.DefaultConfig(13, 48000)
	var x [][]float64
	var y []int
	for i := 0; i < 14; i++ {
		facing := i%2 == 1
		f, err := features.Extract(markedRecording(facing, uint64(i)), featCfg)
		if err != nil {
			t.Fatal(err)
		}
		x = append(x, f)
		label := orientation.LabelNonFacing
		if facing {
			label = orientation.LabelFacing
		}
		y = append(y, label)
	}
	m, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Features:       featCfg,
		Models:         registry.NewStatic(registry.ModelSet{Orientation: m}),
		SessionTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(core.ModeHeadTalk)
	return sys
}

// testCluster wires N nodes over real localhost TCP. Stalled IDs get a
// listener that accepts and reads but never answers — a peer that is
// reachable yet wedged.
type testCluster struct {
	t     testing.TB
	nodes map[string]*Node
	pools map[string]*pool.Pool
	lns   map[string]net.Listener
	addrs map[string]string
}

type clusterOpts struct {
	tune  func(id string, cfg *Config)
	stall map[string]bool
}

func fastTimings(cfg *Config) {
	cfg.ForwardTimeout = 2 * time.Second
	cfg.DialTimeout = 200 * time.Millisecond
	cfg.RetryBase = 5 * time.Millisecond
	cfg.RetryCap = 20 * time.Millisecond
	cfg.HedgeDelay = 25 * time.Millisecond
	cfg.ProbeInterval = 10 * time.Millisecond
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.BreakerCooldown = 20 * time.Millisecond
}

func newTestCluster(t testing.TB, ids []string, opts clusterOpts) *testCluster {
	t.Helper()
	c := &testCluster{
		t:     t,
		nodes: make(map[string]*Node),
		pools: make(map[string]*pool.Pool),
		lns:   make(map[string]net.Listener),
		addrs: make(map[string]string),
	}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c.lns[id] = ln
		c.addrs[id] = ln.Addr().String()
	}
	for _, id := range ids {
		if opts.stall[id] {
			go blackhole(c.lns[id])
			t.Cleanup(func() { c.lns[id].Close() })
			continue
		}
		peers := make(map[string]string)
		for _, other := range ids {
			if other != id {
				peers[other] = c.addrs[other]
			}
		}
		p := pool.New()
		t.Cleanup(func() { _ = p.Close() })
		cfg := Config{NodeID: id, Pool: p, Peers: peers}
		fastTimings(&cfg)
		if opts.tune != nil {
			opts.tune(id, &cfg)
		}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		n.ServeLoop(c.lns[id])
		c.nodes[id] = n
		c.pools[id] = p
	}
	return c
}

// blackhole accepts connections and reads forever without answering.
func blackhole(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := conn.Read(buf); err != nil {
					conn.Close()
					return
				}
			}
		}()
	}
}

// tenantOwnedBy finds a tenant ID the given node's ring assigns to
// owner.
func (c *testCluster) tenantOwnedBy(viewer, owner string) string {
	c.t.Helper()
	for i := 0; i < 100000; i++ {
		id := "tenant-" + strconv.Itoa(i)
		if c.nodes[viewer].Owner(id) == owner {
			return id
		}
	}
	c.t.Fatalf("no tenant hashes to %s", owner)
	return ""
}

func (c *testCluster) addTenant(node, tenant string, sys *core.System) {
	c.t.Helper()
	if _, err := c.pools[node].AddTenant(pool.TenantConfig{ID: tenant, System: sys, Workers: 2, QueueSize: 8}); err != nil {
		c.t.Fatal(err)
	}
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDecideLocalAndForwarded: a node serves its own tenant directly
// and transparently forwards a non-owned tenant's decision to the peer
// hosting it, with the forward instrumented.
func TestDecideLocalAndForwarded(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{})
	owned := c.tenantOwnedBy("n1", "n1")
	remote := c.tenantOwnedBy("n1", "n2")
	c.addTenant("n1", owned, plainSystem(t))
	c.addTenant("n2", remote, plainSystem(t))

	d, forwarded, err := c.nodes["n1"].Decide(context.Background(), owned, testRecording(1))
	if err != nil || forwarded || !d.Accepted {
		t.Fatalf("local decide = %+v, forwarded=%v, err=%v", d, forwarded, err)
	}
	d, forwarded, err = c.nodes["n1"].Decide(context.Background(), remote, testRecording(2))
	if err != nil || !forwarded || !d.Accepted {
		t.Fatalf("forwarded decide = %+v, forwarded=%v, err=%v", d, forwarded, err)
	}
	if got := c.nodes["n1"].Metrics().Counter("cluster.forward.total").Value(); got != 1 {
		t.Fatalf("forward.total = %d, want 1", got)
	}
	if got := c.nodes["n1"].Metrics().Histogram("cluster.forward.latency", nil).Count(); got != 1 {
		t.Fatalf("forward.latency count = %d, want 1", got)
	}
	// Both ways: n2 forwards n1's tenant.
	d, forwarded, err = c.nodes["n2"].Decide(context.Background(), owned, testRecording(3))
	if err != nil || !forwarded || !d.Accepted {
		t.Fatalf("reverse forwarded decide = %+v, forwarded=%v, err=%v", d, forwarded, err)
	}
}

// TestForwardRemoteErrorPassthrough: a reachable owner that does not
// host the tenant answers with an application-level error; the caller
// sees a typed RemoteError, not ErrPeerUnavailable, and the local
// breaker stays closed.
func TestForwardRemoteErrorPassthrough(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{})
	ghost := c.tenantOwnedBy("n1", "n2") // owned by n2, hosted nowhere

	_, forwarded, err := c.nodes["n1"].Decide(context.Background(), ghost, testRecording(1))
	if !forwarded {
		t.Fatal("expected a forward")
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Kind != "unknown_tenant" {
		t.Fatalf("err = %v, want RemoteError{unknown_tenant}", err)
	}
	if errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("remote app error must not be ErrPeerUnavailable: %v", err)
	}
	if snap := c.nodes["n1"].Metrics().Snapshot(); snap.Gauges["cluster.peer.n2.breaker.state"] != 0 {
		t.Fatal("remote app error tripped the local breaker")
	}
}

// TestForwardDeadPeerFailsFastTyped: with the owning peer's listener
// gone, a forward fails inside the configured deadline with the typed
// ErrPeerUnavailable — never hangs, never panics.
func TestForwardDeadPeerFailsFastTyped(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{})
	remote := c.tenantOwnedBy("n1", "n2")
	c.lns["n2"].Close() // kill the peer's wire
	_ = c.nodes["n2"].Close()

	start := time.Now()
	_, forwarded, err := c.nodes["n1"].Decide(context.Background(), remote, testRecording(1))
	elapsed := time.Since(start)
	if !forwarded || !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("dead-peer decide: forwarded=%v err=%v, want ErrPeerUnavailable", forwarded, err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dead-peer forward took %v, want under the 2s deadline", elapsed)
	}
	if got := c.nodes["n1"].Metrics().Counter("cluster.forward.errors.total").Value(); got == 0 {
		t.Fatal("forward error not counted")
	}
}

// TestProbeMembershipDownAndRevive: consecutive probe failures walk a
// peer alive → suspect → down, the ring rebuilds without it (remap
// counted), and a returning peer is probed back in.
func TestProbeMembershipDownAndRevive(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{})
	n1 := c.nodes["n1"]
	if got := n1.Metrics().Gauge("cluster.ring.members").Value(); got != 2 {
		t.Fatalf("ring members = %d, want 2", got)
	}

	// Kill n2 and start probing on n1.
	addr := c.addrs["n2"]
	c.lns["n2"].Close()
	_ = c.nodes["n2"].Close()
	n1.Start()

	waitFor(t, 5*time.Second, "peer n2 down", func() bool {
		ps := n1.Peers()
		return len(ps) == 1 && ps[0].Health == PeerDown
	})
	if got := n1.Metrics().Gauge("cluster.ring.members").Value(); got != 1 {
		t.Fatalf("ring members after down = %d, want 1", got)
	}
	if got := n1.Metrics().Counter("cluster.remap.total").Value(); got == 0 {
		t.Fatal("ring rebuild did not count remapped keys")
	}
	if !n1.Owns(c.tenantOwnedBy("n1", "n1")) {
		t.Fatal("sole survivor must own everything")
	}

	// Bring a responder back on the same address: the probe loop (via
	// the breaker's half-open window) revives it.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer ln.Close()
	go pingResponder(ln)
	waitFor(t, 5*time.Second, "peer n2 revived", func() bool {
		ps := n1.Peers()
		return len(ps) == 1 && ps[0].Health == PeerAlive
	})
	if got := n1.Metrics().Gauge("cluster.ring.members").Value(); got != 2 {
		t.Fatalf("ring members after revive = %d, want 2", got)
	}
}

// pingResponder answers every request line with a bare ok.
func pingResponder(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			br := bufio.NewReader(conn)
			enc := json.NewEncoder(conn)
			for {
				if _, err := ReadBoundedLine(br, nil, maxPeerLine); err != nil {
					return
				}
				if err := enc.Encode(peerResponse{OK: true, Node: "revived"}); err != nil {
					return
				}
			}
		}()
	}
}

// TestHedgedDecideWinsOnStalledOwner: the ring owner accepts
// connections but never answers; after HedgeDelay the forward hedges
// to the next ring successor, which hosts the (migrated) tenant and
// answers — the decision returns long before the stalled peer's
// deadline, and the hedge win is counted.
func TestHedgedDecideWinsOnStalledOwner(t *testing.T) {
	c := newTestCluster(t, []string{"self", "stalled", "backup"},
		clusterOpts{stall: map[string]bool{"stalled": true}})
	self := c.nodes["self"]
	tenant := c.tenantOwnedBy("self", "stalled")
	c.addTenant("backup", tenant, plainSystem(t))

	start := time.Now()
	d, forwarded, err := self.Decide(context.Background(), tenant, testRecording(1))
	elapsed := time.Since(start)
	if err != nil || !forwarded || !d.Accepted {
		t.Fatalf("hedged decide = %+v, forwarded=%v, err=%v", d, forwarded, err)
	}
	if elapsed >= self.cfg.ForwardTimeout {
		t.Fatalf("hedged decide took %v — the stalled owner's deadline, not the hedge", elapsed)
	}
	if got := self.Metrics().Counter("cluster.forward.hedge.wins.total").Value(); got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
}

// TestSnapshotRestoreMigration: capture a trained tenant through a
// non-owning node (forwarded), restore it locally with
// restore-then-activate, serve it locally from then on, and re-capture
// to the identical checksum — the envelope is stable across a full
// migration hop.
func TestSnapshotRestoreMigration(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{
		tune: func(id string, cfg *Config) {
			cfg.Profile = func(string) (string, string) { return "echo-show", "kitchen" }
		},
	})
	tenant := c.tenantOwnedBy("n1", "n2")
	c.addTenant("n2", tenant, trainedSystem(t))

	env, forwarded, err := c.nodes["n1"].Snapshot(context.Background(), tenant)
	if err != nil || !forwarded {
		t.Fatalf("snapshot: forwarded=%v err=%v", forwarded, err)
	}
	if err := env.Verify(); err != nil {
		t.Fatalf("envelope failed verify after the wire hop: %v", err)
	}
	device, room, err := env.Profile()
	if err != nil || device != "echo-show" || room != "kitchen" {
		t.Fatalf("profile = %q/%q, %v", device, room, err)
	}

	if err := c.nodes["n1"].Restore(context.Background(), env); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Served locally now — and the restored gate actually runs.
	d, forwarded, err := c.nodes["n1"].Decide(context.Background(), tenant, markedRecording(true, 42))
	if err != nil || forwarded {
		t.Fatalf("post-restore decide: forwarded=%v err=%v", forwarded, err)
	}
	if !d.FacingRan {
		t.Fatalf("restored system skipped the orientation gate: %+v", d)
	}

	tn, ok := c.pools["n1"].Tenant(tenant)
	if !ok {
		t.Fatal("restored tenant missing from local pool")
	}
	env2, err := CaptureTenant(tn, "echo-show", "kitchen")
	if err != nil {
		t.Fatal(err)
	}
	if env2.Checksum != env.Checksum {
		t.Fatalf("re-capture checksum %s != original %s — snapshot not stable across migration", env2.Checksum, env.Checksum)
	}
}

// TestRestoreRejectsDamage: a tampered or version-skewed envelope is
// rejected with the matching typed error and activates nothing.
func TestRestoreRejectsDamage(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{})
	tenant := c.tenantOwnedBy("n1", "n2")
	c.addTenant("n2", tenant, trainedSystem(t))
	env, _, err := c.nodes["n1"].Snapshot(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}

	tampered := *env
	raw := append([]byte(nil), tampered.Payload...)
	raw[len(raw)/2] ^= 0x20
	tampered.Payload = raw
	if err := c.nodes["n1"].Restore(context.Background(), &tampered); !errors.Is(err, ErrSnapshotChecksum) && !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("tampered restore = %v, want checksum/corrupt error", err)
	}

	skewed := *env
	skewed.Version = 99
	if err := c.nodes["n1"].Restore(context.Background(), &skewed); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("skewed restore = %v, want ErrSnapshotVersion", err)
	}
	if _, ok := c.pools["n1"].Tenant(tenant); ok {
		t.Fatal("failed restore activated a tenant")
	}
}

// TestWireRestoreJoinLeave: the raw peer wire accepts restore, join and
// leave verbs; join/leave rebuild the ring.
func TestWireRestoreJoinLeave(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{})
	tenant := c.tenantOwnedBy("n1", "n2")
	c.addTenant("n2", tenant, trainedSystem(t))
	env, _, err := c.nodes["n1"].Snapshot(context.Background(), tenant)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", c.addrs["n1"])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	// Samples ride only the binary frame; every other op is a JSON line.
	roundTrip := func(req peerRequest) peerResponse {
		t.Helper()
		var frame []byte
		var err error
		if req.Op == opDecide {
			frame, err = appendBinaryRequest(nil, &req)
		} else if frame, err = json.Marshal(req); err == nil {
			frame = append(frame, '\n')
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		line, err := ReadBoundedLine(br, nil, maxPeerLine)
		if err != nil {
			t.Fatal(err)
		}
		var resp peerResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := roundTrip(peerRequest{Op: opPing}); !resp.OK || resp.Node != "n1" {
		t.Fatalf("ping = %+v", resp)
	}
	if resp := roundTrip(peerRequest{Op: opRestore, Envelope: env}); !resp.OK {
		t.Fatalf("wire restore = %+v", resp)
	}
	if _, ok := c.pools["n1"].Tenant(tenant); !ok {
		t.Fatal("wire restore did not activate the tenant")
	}
	if resp := roundTrip(peerRequest{Op: opJoin, Node: "n3", Addr: "127.0.0.1:1"}); !resp.OK {
		t.Fatalf("wire join = %+v", resp)
	}
	if got := c.nodes["n1"].Metrics().Gauge("cluster.ring.members").Value(); got != 3 {
		t.Fatalf("ring members after join = %d, want 3", got)
	}
	if resp := roundTrip(peerRequest{Op: opLeave, Node: "n3"}); !resp.OK {
		t.Fatalf("wire leave = %+v", resp)
	}
	if got := c.nodes["n1"].Metrics().Gauge("cluster.ring.members").Value(); got != 2 {
		t.Fatalf("ring members after leave = %d, want 2", got)
	}
	// Unknown ops and oversized tenants answer with typed wire errors,
	// never a dropped conn.
	if resp := roundTrip(peerRequest{Op: "bogus"}); resp.OK || resp.ErrorKind != "pipeline" {
		t.Fatalf("bogus op = %+v", resp)
	}
	if resp := roundTrip(peerRequest{Op: opDecide, Tenant: "nobody", Channels: [][]float64{{0}}}); resp.OK || resp.ErrorKind != "unknown_tenant" {
		t.Fatalf("unknown tenant decide = %+v", resp)
	}
}

// TestNewNodeValidation: bad configurations are rejected up front.
func TestNewNodeValidation(t *testing.T) {
	p := pool.New()
	defer p.Close()
	if _, err := NewNode(Config{Pool: p}); err == nil {
		t.Fatal("node without an ID accepted")
	}
	if _, err := NewNode(Config{NodeID: "a"}); err == nil {
		t.Fatal("node without a pool accepted")
	}
	if _, err := NewNode(Config{NodeID: "a", Pool: p, Peers: map[string]string{"a": "x"}}); err == nil {
		t.Fatal("self-peering accepted")
	}
	n, err := NewNode(Config{NodeID: "a", Pool: p, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if !n.Owns("anything") {
		t.Fatal("single node must own every tenant")
	}
	if err := n.Join("a", "x"); err == nil {
		t.Fatal("joining self accepted")
	}
	if err := n.Leave("ghost"); err == nil {
		t.Fatal("leaving unknown peer accepted")
	}
}
