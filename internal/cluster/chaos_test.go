package cluster

import (
	"context"
	"errors"
	"net"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"headtalk/internal/faultinject"
	"headtalk/internal/pool"
)

// TestChaosFaultyPeersDoNotHurtLocalTenants is the federation
// isolation proof: one node shares a ring with a dead peer (listener
// gone), a black-hole peer (accepts, never answers) and a drip peer
// (trickles bytes forever). While forwards to all three hammer away
// and fail, the node's locally-owned tenant must see ZERO errors and
// bounded latency — and every failed forward must surface the typed
// ErrPeerUnavailable within the forward deadline. Run under -race by
// the chaos make target.
func TestChaosFaultyPeersDoNotHurtLocalTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}

	hole, err := faultinject.NewBlackHole("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	drip, err := faultinject.NewDrip("127.0.0.1:0", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer drip.Close()
	// The dead peer: listen, record the address, hang up.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	p := pool.New()
	defer p.Close()
	const forwardTimeout = 300 * time.Millisecond
	cfg := Config{
		NodeID: "self",
		Pool:   p,
		Peers: map[string]string{
			"dead":    deadAddr,
			"stalled": hole.Addr(),
			"drip":    drip.Addr(),
		},
		ForwardTimeout: forwardTimeout,
		DialTimeout:    100 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryCap:       20 * time.Millisecond,
		HedgeDelay:     -1, // no hedging: every faulty forward must fail on its own
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// One locally-owned tenant, plus one tenant per faulty peer.
	findOwned := func(owner string) string {
		for i := 0; i < 100000; i++ {
			id := "tenant-" + strconv.Itoa(i)
			if n.Owner(id) == owner {
				return id
			}
		}
		t.Fatalf("no tenant hashes to %s", owner)
		return ""
	}
	local := findOwned("self")
	remoteTenants := map[string]string{}
	for _, peer := range []string{"dead", "stalled", "drip"} {
		remoteTenants[peer] = findOwned(peer)
	}
	if _, err := p.AddTenant(pool.TenantConfig{ID: local, System: plainSystem(t), Workers: 4, QueueSize: 64}); err != nil {
		t.Fatal(err)
	}

	const (
		localCalls   = 120
		forwardCalls = 30 // per faulty peer
	)
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		localLats   []time.Duration
		localErrs   []error
		forwardLats []time.Duration
		badErrs     []error
	)

	// Forward hammer: three faulty peers in parallel.
	for _, peer := range []string{"dead", "stalled", "drip"} {
		tenant := remoteTenants[peer]
		wg.Add(1)
		go func(peer, tenant string) {
			defer wg.Done()
			for i := 0; i < forwardCalls; i++ {
				start := time.Now()
				_, forwarded, err := n.Decide(context.Background(), tenant, testRecording(uint64(i)))
				elapsed := time.Since(start)
				mu.Lock()
				forwardLats = append(forwardLats, elapsed)
				if !forwarded || !errors.Is(err, ErrPeerUnavailable) {
					badErrs = append(badErrs, err)
				}
				mu.Unlock()
			}
		}(peer, tenant)
	}

	// Local traffic, concurrent with the chaos.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < localCalls; i++ {
			start := time.Now()
			d, forwarded, err := n.Decide(context.Background(), local, testRecording(uint64(i)))
			elapsed := time.Since(start)
			mu.Lock()
			localLats = append(localLats, elapsed)
			if err != nil || forwarded || !d.Accepted {
				localErrs = append(localErrs, err)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()

	if len(localErrs) != 0 {
		t.Fatalf("local tenant saw %d errors during peer chaos: %v", len(localErrs), localErrs[0])
	}
	if len(badErrs) != 0 {
		t.Fatalf("%d faulty-peer forwards returned something other than ErrPeerUnavailable: %v", len(badErrs), badErrs[0])
	}
	sort.Slice(localLats, func(i, j int) bool { return localLats[i] < localLats[j] })
	p99 := localLats[len(localLats)*99/100]
	if p99 > forwardTimeout {
		t.Fatalf("local p99 %v exceeds the forward deadline %v — peer faults leaked into local serving", p99, forwardTimeout)
	}
	// Every failed forward resolved within the deadline (+ generous
	// scheduling slack): faults fail fast, they do not hang.
	for _, l := range forwardLats {
		if l > forwardTimeout+700*time.Millisecond {
			t.Fatalf("a faulty-peer forward took %v, deadline was %v", l, forwardTimeout)
		}
	}

	// The breakers opened under sustained failure, so late forwards
	// fail without touching the network at all.
	start := time.Now()
	_, _, err = n.Decide(context.Background(), remoteTenants["stalled"], testRecording(999))
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("post-chaos forward = %v, want ErrPeerUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > forwardTimeout {
		t.Fatalf("post-chaos forward took %v — breaker did not fail fast", elapsed)
	}
	snap := n.Metrics().Snapshot()
	open := 0
	for _, peer := range []string{"dead", "stalled", "drip"} {
		if snap.Gauges["cluster.peer."+peer+".breaker.state"] > 0 {
			open++
		}
	}
	if open == 0 {
		t.Fatal("no per-peer breaker opened under sustained transport failure")
	}
}

// TestChaosProbeIsolatesBlackHole: with probing on, a black-hole peer
// is marked down within a few probe cycles and the ring sheds it, so
// later requests for its tenants are owned locally (or fail fast)
// instead of waiting out deadlines.
func TestChaosProbeIsolatesBlackHole(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	hole, err := faultinject.NewBlackHole("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	p := pool.New()
	defer p.Close()
	cfg := Config{
		NodeID:        "self",
		Pool:          p,
		Peers:         map[string]string{"wedged": hole.Addr()},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  50 * time.Millisecond,
		DialTimeout:   100 * time.Millisecond,
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()

	waitFor(t, 5*time.Second, "black-hole peer marked down", func() bool {
		ps := n.Peers()
		return len(ps) == 1 && ps[0].Health == PeerDown
	})
	if got := n.Metrics().Gauge("cluster.ring.members").Value(); got != 1 {
		t.Fatalf("ring members = %d, want 1 after shedding the wedged peer", got)
	}
	if !n.Owns("any-tenant-at-all") {
		t.Fatal("sole live node must own everything after the rebuild")
	}
}
