package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/pool"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
)

// ErrPeerUnavailable is the typed transport failure of the forwarding
// path: the owning peer could not be reached (dial failure, deadline,
// open per-peer breaker, no live owner on the ring). Application-level
// rejections from a reachable peer are *RemoteError instead. Wrapped
// with peer detail; match with errors.Is.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// PeerHealth is a peer's probe-driven liveness state.
type PeerHealth int

// Peer liveness states. Transitions: Alive → Suspect on the first
// failed probe, Suspect → Down after downAfter consecutive failures
// (ring rebuild), any → Alive on a successful probe (ring rebuild if
// it was Down).
const (
	PeerAlive PeerHealth = iota
	PeerSuspect
	PeerDown
)

// String returns the state name.
func (h PeerHealth) String() string {
	switch h {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDown:
		return "down"
	default:
		return "unknown"
	}
}

// downAfter is the consecutive failed-probe count that marks a peer
// Down and removes it from the ring.
const downAfter = 3

// Forwarding limits: each node has hashReplicas virtual nodes on the
// ring; a forward of an idempotent operation is retried up to retryMax
// times after a transport failure; at most maxInFlight forwards run
// per peer at once (excess forwards queue on the semaphore, bounded by
// their own deadlines); and breakerThreshold consecutive transport
// failures open a peer's circuit breaker.
const (
	hashReplicas     = 64
	retryMax         = 2
	maxInFlight      = 32
	breakerThreshold = 4
)

// Config assembles a Node. Zero values select the documented defaults.
type Config struct {
	// NodeID names this node on the ring (required, unique per
	// cluster).
	NodeID string
	// Pool is the local serving pool holding this node's owned tenants
	// (required). The node answers its peers' forwards from it.
	Pool *pool.Pool
	// Peers maps peer node IDs to their peer-listener addresses. The
	// ring is built over NodeID + all peers; peers start Alive.
	Peers map[string]string
	// Metrics receives cluster instrumentation (ring membership, remap
	// count, forward latency, per-peer breaker/liveness/retry/latency).
	// Nil creates a private registry.
	Metrics *metrics.Registry

	// ForwardTimeout bounds one forwarded request end to end, retries
	// and hedge included (default 2s). The caller's context may tighten
	// it further, never loosen it.
	ForwardTimeout time.Duration
	// DialTimeout bounds one connection attempt (default 500ms).
	DialTimeout time.Duration
	// RetryBase / RetryCap shape the capped exponential backoff between
	// retries (defaults 25ms / 250ms, ±25% jitter).
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeDelay is how long a forwarded decide waits on the owner
	// before firing one hedged attempt at the next ring successor
	// (default 150ms; negative disables hedging).
	HedgeDelay time.Duration

	// ProbeInterval / ProbeTimeout drive the health prober (defaults
	// 500ms / 250ms). A zero ProbeInterval with no Start call leaves
	// membership static.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// BreakerCooldown is how long an open per-peer circuit breaker
	// waits before probing again (default 2s).
	BreakerCooldown time.Duration

	// Profile reports the enrollment profile (device, room) to record
	// in captured envelopes; nil records neither.
	Profile func(tenantID string) (device, room string)
}

func (cfg Config) withDefaults() Config {
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 500 * time.Millisecond
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 250 * time.Millisecond
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 150 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 250 * time.Millisecond
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	return cfg
}

// peerState is one peer's membership record.
type peerState struct {
	id     string
	addr   string
	client *peerClient

	health   PeerHealth
	failures int
	gauge    *metrics.Gauge // cluster.peer.<id>.state
}

// Node is one member of a headtalkd federation: it owns the tenants
// the ring assigns to its ID, forwards requests for everyone else's,
// probes its peers and serves the peer wire protocol. All methods are
// safe for concurrent use.
type Node struct {
	cfg Config
	reg *metrics.Registry

	// mu guards peers and ring; the ring itself is immutable.
	mu    sync.RWMutex
	peers map[string]*peerState
	ring  *pool.Ring

	ringMembers *metrics.Gauge
	remap       *metrics.Counter
	forwards    *metrics.Counter
	forwardErrs *metrics.Counter
	forwardLat  *metrics.Histogram
	hedgeWins   *metrics.Counter

	stop    chan struct{}
	started atomic.Bool
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// NewNode validates cfg and assembles a node. Peers start Alive — the
// ring covers the full configured membership until probes say
// otherwise. Call Start to begin probing.
func NewNode(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: node needs a NodeID")
	}
	if cfg.Pool == nil {
		return nil, fmt.Errorf("cluster: node %q needs a pool", cfg.NodeID)
	}
	if _, dup := cfg.Peers[cfg.NodeID]; dup {
		return nil, fmt.Errorf("cluster: node %q lists itself as a peer", cfg.NodeID)
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n := &Node{
		cfg:         cfg,
		reg:         reg,
		peers:       make(map[string]*peerState, len(cfg.Peers)),
		ringMembers: reg.Gauge("cluster.ring.members"),
		remap:       reg.Counter("cluster.remap.total"),
		forwards:    reg.Counter("cluster.forward.total"),
		forwardErrs: reg.Counter("cluster.forward.errors.total"),
		forwardLat:  reg.Histogram("cluster.forward.latency", nil),
		hedgeWins:   reg.Counter("cluster.forward.hedge.wins.total"),
		stop:        make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		if id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: node %q: peer %q needs an id and address", cfg.NodeID, id)
		}
		n.peers[id] = &peerState{
			id:     id,
			addr:   addr,
			client: newPeerClient(id, addr, &n.cfg, reg),
			health: PeerAlive,
			gauge:  reg.Gauge("cluster.peer." + id + ".state"),
		}
	}
	n.rebuildRingLocked()
	return n, nil
}

// Metrics returns the node's cluster registry.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Start launches the health prober. Idempotent.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) || n.closed.Load() {
		return
	}
	n.wg.Add(1)
	go n.probeLoop()
}

// Close stops probing and drops every peer's idle connections. The
// local pool is NOT closed — it belongs to the caller.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stop)
	n.wg.Wait()
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, p := range n.peers {
		p.client.close()
	}
	return nil
}

// rebuildRingLocked reassembles the node ring from self plus every
// not-Down peer, updating the membership gauge and the remap counter
// (probe keys whose owner changed). Callers hold n.mu or have
// exclusive access (NewNode).
func (n *Node) rebuildRingLocked() {
	ids := []string{n.cfg.NodeID}
	for id, p := range n.peers {
		if p.health != PeerDown {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	old := n.ring
	n.ring = pool.BuildRing(ids, hashReplicas)
	n.ringMembers.Set(int64(n.ring.Len()))
	if old != nil {
		if moved := pool.RemapCount(old, n.ring); moved > 0 {
			n.remap.Add(uint64(moved))
		}
	}
}

// Owner reports which node the ring assigns the tenant to.
func (n *Node) Owner(tenantID string) string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring.Route(tenantID)
}

// Owns reports whether this node is the tenant's ring owner.
func (n *Node) Owns(tenantID string) bool { return n.Owner(tenantID) == n.cfg.NodeID }

// Join adds (or re-addresses) a peer and rebuilds the ring. The
// daemon's v3 join verb calls it.
func (n *Node) Join(id, addr string) error {
	if id == "" || addr == "" {
		return fmt.Errorf("cluster: join needs a node id and address")
	}
	if id == n.cfg.NodeID {
		return fmt.Errorf("cluster: node %q cannot join itself", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.peers[id]; ok {
		if old.addr == addr {
			return nil
		}
		old.client.close()
	}
	n.peers[id] = &peerState{
		id:     id,
		addr:   addr,
		client: newPeerClient(id, addr, &n.cfg, n.reg),
		health: PeerAlive,
		gauge:  n.reg.Gauge("cluster.peer." + id + ".state"),
	}
	n.rebuildRingLocked()
	return nil
}

// Leave removes a peer from membership and the ring. The daemon's v3
// leave verb calls it.
func (n *Node) Leave(id string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.peers[id]
	if !ok {
		return fmt.Errorf("cluster: unknown peer %q", id)
	}
	p.client.close()
	delete(n.peers, id)
	n.rebuildRingLocked()
	return nil
}

// probeLoop pings every peer each ProbeInterval and applies the
// alive/suspect/down transitions.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		n.mu.RLock()
		peers := make([]*peerState, 0, len(n.peers))
		for _, p := range n.peers {
			peers = append(peers, p)
		}
		n.mu.RUnlock()
		var wg sync.WaitGroup
		for _, p := range peers {
			wg.Add(1)
			go func(p *peerState) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), n.cfg.ProbeTimeout)
				defer cancel()
				_, err := p.client.call(ctx, peerRequest{Op: opPing}, false)
				var remote *RemoteError
				n.recordProbe(p, err == nil || errors.As(err, &remote))
			}(p)
		}
		wg.Wait()
	}
}

// recordProbe applies one probe outcome. An application-level answer
// counts as alive — the peer's wire is up even if the op failed.
func (n *Node) recordProbe(p *peerState, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, still := n.peers[p.id]; !still {
		return
	}
	if ok {
		p.failures = 0
		wasDown := p.health == PeerDown
		p.health = PeerAlive
		p.gauge.Set(int64(PeerAlive))
		if wasDown {
			n.rebuildRingLocked()
		}
		return
	}
	p.failures++
	switch {
	case p.failures >= downAfter && p.health != PeerDown:
		p.health = PeerDown
		p.gauge.Set(int64(PeerDown))
		n.rebuildRingLocked()
	case p.health == PeerAlive:
		p.health = PeerSuspect
		p.gauge.Set(int64(PeerSuspect))
	}
}

// forwardCandidates returns the live peers that may serve the tenant,
// in ring order (owner first), excluding self and Down peers.
func (n *Node) forwardCandidates(tenantID string) []*peerState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []*peerState
	for _, id := range n.ring.RouteN(tenantID, n.ring.Len()) {
		if id == n.cfg.NodeID {
			continue
		}
		if p, ok := n.peers[id]; ok && p.health != PeerDown {
			out = append(out, p)
		}
		if len(out) == 2 { // owner + one hedge successor is all we use
			break
		}
	}
	return out
}

// Decide forwards one decision to the tenant's ring owner with
// deadline, retries and one hedged attempt at the next ring successor
// (idempotent — a decision is a pure classification). Callers serve
// tenants their own pool hosts without the node.
func (n *Node) Decide(ctx context.Context, tenantID string, rec *audio.Recording) (core.Decision, error) {
	req := peerRequest{
		Op:         opDecide,
		Tenant:     tenantID,
		SampleRate: rec.SampleRate,
		Channels:   rec.Channels,
	}
	resp, err := n.forward(ctx, tenantID, req, true)
	if err != nil {
		return core.Decision{}, err
	}
	return decisionFromWire(resp.Decision), nil
}

// PushFrames forwards one streaming chunk to the tenant's session on
// the owning peer. Frame pushes mutate session state, so forwards run
// without retries or hedging — at-most-once.
func (n *Node) PushFrames(ctx context.Context, tenantID, sessionID string, frames [][]float64) (stream.PushResult, error) {
	req := peerRequest{Op: opFrames, Tenant: tenantID, Session: sessionID, Frames: frames}
	resp, err := n.forward(ctx, tenantID, req, false)
	if err != nil {
		return stream.PushResult{}, err
	}
	res := stream.PushResult{Status: statusFromString(resp.Status)}
	if resp.SpotScore != nil {
		res.SpotScore = *resp.SpotScore
	}
	if resp.StreamDecision != nil {
		d := decisionFromWire(resp.StreamDecision)
		res.Decision = &d
	}
	return res, nil
}

// EndSession closes the tenant's streaming session on the owning peer
// (idempotent: ending an absent session reports false).
func (n *Node) EndSession(ctx context.Context, tenantID, sessionID string) (bool, error) {
	req := peerRequest{Op: opEndSession, Tenant: tenantID, Session: sessionID}
	resp, err := n.forward(ctx, tenantID, req, true)
	if err != nil {
		return false, err
	}
	return resp.Ended != nil && *resp.Ended, nil
}

// Snapshot fetches the tenant's envelope from the owning peer
// (read-only, so forwarded with retries and hedging).
func (n *Node) Snapshot(ctx context.Context, tenantID string) (*Envelope, error) {
	req := peerRequest{Op: opSnapshot, Tenant: tenantID}
	resp, err := n.forward(ctx, tenantID, req, true)
	if err != nil {
		return nil, err
	}
	if resp.Envelope == nil {
		return nil, fmt.Errorf("%w: peer returned no envelope", ErrSnapshotCorrupt)
	}
	return resp.Envelope, nil
}

// forwardResult carries one attempt's outcome through the hedge race.
type forwardResult struct {
	resp  *peerResponse
	err   error
	hedge bool
}

// forward sends req to the tenant's owning peer, bounded by
// ForwardTimeout (tightened by the caller's ctx, never loosened). With
// hedge true and a second live candidate on the ring, one hedged
// attempt fires after HedgeDelay — or immediately when the primary
// fails — and the first success wins. The whole round trip (retries
// and hedge included) is recorded as one StageForward trace span.
func (n *Node) forward(ctx context.Context, tenantID string, req peerRequest, hedge bool) (*peerResponse, error) {
	tr := trace.FromContext(ctx)
	spanStart := tr.Begin()
	start := time.Now()
	n.forwards.Inc()
	resp, err := n.forwardRace(ctx, tenantID, req, hedge)
	tr.End(trace.StageForward, spanStart)
	n.forwardLat.ObserveDuration(time.Since(start))
	if err != nil {
		n.forwardErrs.Inc()
	}
	return resp, err
}

func (n *Node) forwardRace(ctx context.Context, tenantID string, req peerRequest, hedge bool) (*peerResponse, error) {
	cands := n.forwardCandidates(tenantID)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no live owner for tenant %q", ErrPeerUnavailable, tenantID)
	}
	ctx, cancel := context.WithTimeout(ctx, n.cfg.ForwardTimeout)
	defer cancel()

	if !hedge || len(cands) < 2 || n.cfg.HedgeDelay < 0 {
		return cands[0].client.call(ctx, req, hedge)
	}

	results := make(chan forwardResult, 2)
	launch := func(p *peerState, isHedge bool) {
		go func() {
			resp, err := p.client.call(ctx, req, true)
			results <- forwardResult{resp: resp, err: err, hedge: isHedge}
		}()
	}
	launch(cands[0], false)
	launched, hedgeFired := 1, false
	fireHedge := func() {
		if !hedgeFired {
			hedgeFired = true
			launched++
			launch(cands[1], true)
		}
	}
	timer := time.NewTimer(n.cfg.HedgeDelay)
	defer timer.Stop()

	var primaryErr, hedgeErr error
	for launched > 0 {
		select {
		case r := <-results:
			launched--
			if r.err == nil {
				if r.hedge {
					n.hedgeWins.Inc()
				}
				return r.resp, nil
			}
			var remote *RemoteError
			if errors.As(r.err, &remote) {
				if !r.hedge {
					// The owner answered: its application-level verdict is
					// authoritative, successor opinions are not.
					return nil, r.err
				}
				// A hedge peer that does not host the tenant is expected
				// noise, not an answer; other remote errors from it are
				// real answers worth surfacing if the owner stays silent.
				if remote.Kind == "unknown_tenant" {
					r.err = fmt.Errorf("%w: hedge peer %s does not host %q", ErrPeerUnavailable, cands[1].id, tenantID)
				}
			}
			if r.hedge {
				hedgeErr = r.err
			} else {
				primaryErr = r.err
				fireHedge() // primary transport failure: hedge immediately
			}
		case <-timer.C:
			fireHedge()
		}
	}
	if primaryErr != nil {
		return nil, primaryErr
	}
	return nil, hedgeErr
}
