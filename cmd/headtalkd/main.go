// Command headtalkd is the HeadTalk decision daemon: the first
// end-to-end "service" shape for this repo. It reads newline-delimited
// JSON decision requests — each naming a WAV file or a synthetic
// condition spec — on stdin or a TCP listener, runs them through the
// multi-tenant serving pool (internal/pool), and streams JSON
// decisions plus periodic metrics summaries back.
//
// Usage:
//
//	headtalkd [-listen addr] [-workers N] [-queue N] [-mode M]
//	          [-tenants spec] [-deadline D] [-metrics-every D]
//	          [-no-enroll] [-ensemble] [-seed N]
//	          [-orientation-reps N] [-liveness-pairs N]
//	          [-breaker-threshold N] [-breaker-cooldown D]
//	          [-trace] [-trace-capacity N] [-slow-threshold D]
//	          [-debug-addr addr] [-drain-timeout D]
//	          [-node-id id -peer-listen addr -peers id=host:port,...
//	           [-forward-timeout D]]
//
// With -tenants the daemon hosts several isolated device profiles at
// once, each with its own trained system, queue, circuit breaker and
// metrics. The spec is a comma-separated list of id:DEVICE@ROOM
// entries (device D1|D2|D3, room lab|home; both optional):
//
//	headtalkd -tenants lab:D1@lab,home:D3@home
//
// Requests name their tenant with a "tenant" field; without one they
// go to the first configured tenant. Without -tenants the daemon runs
// a single anonymous tenant and behaves exactly like earlier versions.
//
// Request lines (protocol versions 1 through 5; "v" may be omitted and
// then means 1 — version 1 requests are still accepted unchanged):
//
//	{"v":1,"id":"1","wav":"/path/to/utterance.wav"}
//	{"id":"2","condition":{"AngleDeg":180,"Distance":3}}
//	{"id":"3","tenant":"home","condition":{"Replay":"Smart TV"}}
//	{"id":"4","mode":"normal"}            (control: switch privacy mode)
//	{"id":"5","health":true}              (control: tenant health snapshot)
//	{"id":"6","trace":true}               (control: toggle store-wide tracing)
//	{"id":"7","condition":{},"trace":true}  (force + inline one trace)
//
// Protocol version 2 adds continuous-listening ingest: instead of
// shipping a whole utterance, clients push chunked multichannel sample
// frames into a named per-connection session. The daemon runs the
// early-exit cascade (energy floor, online wake-word spotting) on every
// chunk and only a spotted candidate reaches the full decision
// pipeline; the response reports how far each chunk got:
//
//	{"v":2,"id":"8","session":"kitchen","frames":[[...ch0...],[...ch1...],...]}
//	{"v":2,"id":"9","session":"kitchen","end_session":true}
//
// Frames are 48 kHz samples, one inner array per microphone channel
// (the tenant's array geometry dictates the channel count; 4 without a
// device spec). "frames" and "end_session" on a v1 request are
// rejected with error_kind "unsupported_version". A frames push made
// only of the v, id, tenant, session and frames fields, with plain
// ASCII strings and JSON numbers, is decoded in one pass into reused
// per-connection buffers; any other line, or any such line the fast
// path cannot fully own, is decoded by encoding/json, so both paths
// answer identically (framesdecode.go lists the fallback rule).
//
// Protocol version 3 federates daemons (-node-id, -peer-listen,
// -peers): each node hosts the tenants the consistent-hash ring gives
// it and forwards decisions, frames, end_session and snapshot requests
// for the rest to their owner ("forwarded":true on the response).
// snapshot answers a tenant's checksummed state envelope; restore
// activates one on this daemon, federated or not, leaving the old
// tenant serving if it fails; join and leave edit this node's peers:
//
//	{"v":3,"id":"14","tenant":"home","snapshot":true}
//	{"v":3,"id":"15","restore":{...snapshot envelope...}}
//	{"v":3,"id":"16","join":{"node":"c","addr":"10.0.0.3:7177"}}
//	{"v":3,"id":"17","leave":"c"}
//
// Protocol version 4 adds multi-array fused decisions: several arrays'
// captures of the same utterance run the pipeline and the per-array
// posteriors are fused (health-weighted) into one room-level
// accept/reject:
//
//	{"v":4,"id":"10","arrays":[{"id":"near","condition":{"Distance":1}},
//	                           {"id":"far","condition":{"Distance":4}}]}
//
// The "fused" response line carries the room decision plus a per-array
// breakdown (accepted, reason_slug, facing/live scores, errors).
//
// Protocol version 5 adds model-lifecycle control verbs against each
// tenant's versioned model registry:
//
//	{"v":5,"id":"11","model_status":true}
//	{"v":5,"id":"12","promote":{"kind":"orientation","version":4}}
//	{"v":5,"id":"13","rollback":"orientation"}
//
// model_status answers a "models" line listing every model family's
// versions (lifecycle state, checksum, active/previous) plus
// the orientation drift detector's state. promote atomically hot-swaps
// the named version to active without draining in-flight decisions;
// rollback reactivates the previously active version byte-for-byte.
// With -ensemble the daemon requires the fused liveness ensemble:
// decisions must clear both the spectral liveness gate and the
// enrolled array-fingerprint gate, and reject fail-closed when either
// model is missing.
//
// Control requests honor "tenant" too: mode, health, trace, frames,
// end_session and the model verbs all act on the named tenant only.
// Mode, health, trace, the model verbs and fused (arrays) lines are
// never forwarded: for a peer-owned tenant they are refused with an
// error naming the owner.
//
// With -debug-addr set, an HTTP listener additionally serves
// net/http/pprof under /debug/pprof/, Prometheus text exposition at
// /metrics (with a tenant label when -tenants is set), retained traces
// at /debug/traces[/slow] (?tenant= selects a store), and a health
// probe at /healthz aggregating every tenant.
//
// Response lines (order may differ from request order under load; use
// ids to correlate):
//
//	{"type":"decision","id":"1","accepted":true,"reason":"accepted",...}
//	{"type":"stream","id":"8","session":"kitchen","status":"no_wake","spot_score":0.41}
//	{"type":"stream","id":"8","session":"kitchen","status":"decided","accepted":true,...}
//	{"type":"error","id":"9","error":"serve: submission queue full","error_kind":"backpressure"}
//	{"type":"health","id":"5","health":{"state":"running","healthy":true,...}}
//	{"type":"metrics","counters":{...},"gauges":{...},"latencies":{...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"headtalk"
	"headtalk/internal/cluster"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/mic"
	"headtalk/internal/pool"
	"headtalk/internal/speech"
	"headtalk/internal/stream"
	"headtalk/internal/trace"
	"headtalk/internal/va"
)

func main() {
	var (
		listen       = flag.String("listen", "", "TCP listen address (empty: serve stdin/stdout)")
		workers      = flag.Int("workers", 0, "per-tenant engine worker count (0: NumCPU)")
		queueSize    = flag.Int("queue", 64, "per-tenant bounded submission queue size")
		mode         = flag.String("mode", "headtalk", "initial privacy mode: normal|mute|headtalk")
		tenants      = flag.String("tenants", "", "comma-separated tenant specs id:DEVICE@ROOM (empty: one anonymous tenant)")
		deadline     = flag.Duration("deadline", 0, "per-request deadline (0: none)")
		metricsEvery = flag.Duration("metrics-every", 30*time.Second, "metrics summary interval (0: disable)")
		noEnroll     = flag.Bool("no-enroll", false, "skip gate training (headtalk mode then rejects everything)")
		ensemble     = flag.Bool("ensemble", false, "require the fused liveness ensemble (spectral + array fingerprint; fail-closed when either model is missing)")
		seed         = flag.Uint64("seed", 7, "enrollment + synthesis seed")
		orientReps   = flag.Int("orientation-reps", 2, "enrollment repetitions per angle/distance")
		livePairs    = flag.Int("liveness-pairs", 36, "live/replay training pairs for the liveness gate")
		breakerN     = flag.Int("breaker-threshold", 0, "consecutive pipeline failures that trip the circuit breaker (0: default 8, negative: disable)")
		breakerWait  = flag.Duration("breaker-cooldown", 0, "reject-fast period before a half-open probe (0: default 5s)")
		traceOn      = flag.Bool("trace", false, "record per-decision stage traces from the start (also toggleable per connection)")
		traceCap     = flag.Int("trace-capacity", trace.DefaultCapacity, "per-tenant recent-trace ring capacity")
		slowThresh   = flag.Duration("slow-threshold", trace.DefaultSlowThreshold, "decisions at least this slow are always retained (negative: disable)")
		debugAddr    = flag.String("debug-addr", "", "opt-in HTTP listener for pprof, Prometheus metrics and recent traces (empty: off)")
		nodeID       = flag.String("node-id", "", "federation node id (empty: standalone daemon)")
		peersFlag    = flag.String("peers", "", "comma-separated federation peers id=host:port")
		peerListen   = flag.String("peer-listen", "", "TCP listen address for node-to-node traffic (required with -node-id and peers)")
		forwardTO    = flag.Duration("forward-timeout", 0, "end-to-end deadline for one forwarded request (0: 2s)")
		drainTO      = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound for draining in-flight decisions")
	)
	flag.Parse()

	specs, err := parseTenantSpecs(*tenants)
	if err != nil {
		log.Fatalf("headtalkd: %v", err)
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("headtalkd: %v", err)
	}
	if *nodeID == "" && len(peers) > 0 {
		log.Fatalf("headtalkd: -peers requires -node-id")
	}
	if *nodeID != "" && len(peers) > 0 && *peerListen == "" {
		log.Fatalf("headtalkd: federating with peers requires -peer-listen")
	}
	if *peerListen != "" && *nodeID == "" {
		log.Fatalf("headtalkd: -peer-listen requires -node-id")
	}
	d, err := newDaemon(daemonOptions{
		Workers:          *workers,
		QueueSize:        *queueSize,
		Mode:             *mode,
		Tenants:          specs,
		Deadline:         *deadline,
		MetricsEvery:     *metricsEvery,
		Enroll:           !*noEnroll,
		Ensemble:         *ensemble,
		Seed:             *seed,
		OrientReps:       *orientReps,
		LivePairs:        *livePairs,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerWait,
		Trace:            *traceOn,
		TraceCapacity:    *traceCap,
		SlowThreshold:    *slowThresh,
		Progress:         os.Stderr,
		NodeID:           *nodeID,
		Peers:            peers,
		ForwardTimeout:   *forwardTO,
	})
	if err != nil {
		log.Fatalf("headtalkd: %v", err)
	}
	defer d.Close()

	// SIGINT/SIGTERM: stop accepting, leave the federation, drain
	// in-flight decisions bounded by -drain-timeout, emit one final
	// metrics line, exit 0.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "headtalkd: %v: draining (bound %v)\n", s, *drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "headtalkd: drain: %v\n", err)
		}
		final, _ := json.Marshal(metricsResponse(d.snapshot()))
		fmt.Println(string(final))
		os.Exit(0)
	}()

	if *peerListen != "" {
		pln, err := net.Listen("tcp", *peerListen)
		if err != nil {
			log.Fatalf("headtalkd: peer listener: %v", err)
		}
		d.registerListener(pln)
		fmt.Fprintf(os.Stderr, "headtalkd: node %s peer wire on %s (%d peers)\n", *nodeID, pln.Addr(), len(peers))
		d.node.ServeLoop(pln)
	}

	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("headtalkd: debug listener: %v", err)
		}
		fmt.Fprintf(os.Stderr, "headtalkd: debug HTTP on %s (/debug/pprof/, /metrics, /debug/traces)\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, d.debugMux()); err != nil {
				log.Printf("headtalkd: debug listener: %v", err)
			}
		}()
	}

	if *listen == "" {
		if err := d.ServeStream(os.Stdin, os.Stdout); err != nil {
			log.Fatalf("headtalkd: %v", err)
		}
		return
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("headtalkd: %v", err)
	}
	fmt.Fprintf(os.Stderr, "headtalkd: listening on %s (%d tenants: %s; queue %d)\n",
		ln.Addr(), d.pool.Len(), strings.Join(d.pool.Tenants(), ","), *queueSize)
	d.ServeListener(ln)
}

// parsePeers parses the -peers flag: comma-separated id=host:port
// entries.
func parsePeers(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	peers := map[string]string{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		i := strings.IndexByte(entry, '=')
		if i <= 0 || i == len(entry)-1 {
			return nil, fmt.Errorf("peer %q: want id=host:port", entry)
		}
		id, addr := entry[:i], entry[i+1:]
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = addr
	}
	return peers, nil
}

// tenantSpec names one hosted device profile.
type tenantSpec struct {
	ID     string
	Device string // "D1", "D2", "D3"; empty: D2 (the paper's default)
	Room   string // "lab" or "home"; empty: lab
}

// parseTenantSpecs parses the -tenants flag: comma-separated
// id[:DEVICE[@ROOM]] entries.
func parseTenantSpecs(s string) ([]tenantSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var specs []tenantSpec
	seen := map[string]bool{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		spec := tenantSpec{ID: entry}
		if i := strings.IndexByte(entry, ':'); i >= 0 {
			spec.ID, spec.Device = entry[:i], entry[i+1:]
			if j := strings.IndexByte(spec.Device, '@'); j >= 0 {
				spec.Device, spec.Room = spec.Device[:j], spec.Device[j+1:]
			}
		}
		if spec.ID == "" {
			return nil, fmt.Errorf("tenant spec %q has no id", entry)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("duplicate tenant id %q", spec.ID)
		}
		seen[spec.ID] = true
		if spec.Device != "" {
			if _, err := mic.DeviceByID(spec.Device); err != nil {
				return nil, fmt.Errorf("tenant %q: %w", spec.ID, err)
			}
		}
		switch spec.Room {
		case "", "lab", "home":
		default:
			return nil, fmt.Errorf("tenant %q: unknown room %q (want lab|home)", spec.ID, spec.Room)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// daemonOptions assembles a daemon.
type daemonOptions struct {
	Workers   int
	QueueSize int
	Mode      string
	// Tenants lists the hosted device profiles. Empty hosts one
	// anonymous tenant (single-tenant mode: responses and metrics keep
	// their historical, label-free shape).
	Tenants      []tenantSpec
	Deadline     time.Duration
	MetricsEvery time.Duration
	Enroll       bool
	// Ensemble arms the fused liveness ensemble on every tenant's
	// registry: a decision must clear BOTH the spectral gate and the
	// array-fingerprint gate, and is rejected fail-closed when either
	// model is missing.
	Ensemble         bool
	Seed             uint64
	OrientReps       int
	LivePairs        int
	BreakerThreshold int
	BreakerCooldown  time.Duration
	Trace            bool
	TraceCapacity    int
	SlowThreshold    time.Duration
	Progress         io.Writer

	// NodeID joins this daemon to a federation: tenants are partitioned
	// across nodes on a consistent-hash ring, only owned tenants are
	// enrolled and hosted here, and requests for everyone else's are
	// forwarded to the owning peer. Empty runs the classic standalone
	// daemon.
	NodeID string
	// Peers maps peer node IDs to their peer-listener addresses.
	Peers map[string]string
	// ForwardTimeout bounds one forwarded request end to end (0: the
	// cluster default, 2s).
	ForwardTimeout time.Duration
}

// defaultTenantID names the single tenant hosted when -tenants is not
// set.
const defaultTenantID = "default"

// daemon owns the serving pool (one tenant per hosted device profile)
// and the synth generator shared by every connection.
type daemon struct {
	pool *pool.Pool
	// defaultID routes requests that name no tenant.
	defaultID string
	// multiTenant selects the multi-tenant response/metrics shape:
	// tenant echoes on responses, tenant.<id>. metric prefixes and
	// tenant-labeled Prometheus exposition. Single-tenant daemons keep
	// the historical flat shape.
	multiTenant bool
	// specsMu guards specs, the device profile of each hosted tenant:
	// a restore records one while other connections read them.
	specsMu sync.RWMutex
	specs   map[string]tenantSpec
	opts    daemonOptions

	// node federates this daemon with its peers (nil: standalone). Its
	// registry is merged into metrics lines under the cluster.* names.
	node *cluster.Node
	// spotter is shared by every tenant's streaming sessions, including
	// tenants restored from snapshots later.
	spotter *va.Spotter

	// genMu serializes the synthetic-condition generator, which is not
	// safe for concurrent use; WAV requests bypass it entirely.
	genMu sync.Mutex
	gen   *dataset.Generator

	// lnMu guards listeners, registered by the serving entry points so
	// Shutdown can stop accepting.
	lnMu      sync.Mutex
	listeners []net.Listener
	shutdown  sync.Once
	draining  atomic.Bool
}

func newDaemon(opts daemonOptions) (*daemon, error) {
	m, err := core.ParseMode(opts.Mode)
	if err != nil {
		return nil, err
	}
	specs := opts.Tenants
	multiTenant := len(specs) > 0
	if !multiTenant {
		specs = []tenantSpec{{ID: defaultTenantID}}
	}

	d := &daemon{
		pool:        pool.New(),
		defaultID:   specs[0].ID,
		multiTenant: multiTenant,
		specs:       make(map[string]tenantSpec, len(specs)),
		opts:        opts,
		gen:         dataset.NewGenerator(opts.Seed),
	}

	// One wake-word spotter serves every tenant's streaming sessions:
	// after construction its templates are read-only, and each session
	// spots through its own OnlineSpotter state.
	spotter, err := va.NewSpotter(speech.WordComputer, 4, opts.Seed)
	if err != nil {
		_ = d.pool.Close()
		return nil, fmt.Errorf("building wake spotter: %w", err)
	}
	d.spotter = spotter

	if opts.NodeID != "" {
		node, err := cluster.NewNode(cluster.Config{
			NodeID:         opts.NodeID,
			Pool:           d.pool,
			Peers:          opts.Peers,
			Metrics:        metrics.NewRegistry(),
			ForwardTimeout: opts.ForwardTimeout,
			Profile: func(tenantID string) (string, string) {
				spec := d.spec(tenantID)
				return spec.Device, spec.Room
			},
		})
		if err != nil {
			_ = d.pool.Close()
			return nil, err
		}
		d.node = node
		// Ownership filter: enroll and host only the tenants the ring
		// assigns to this node; the rest are served by forwarding.
		var owned []tenantSpec
		for _, spec := range specs {
			if node.Owns(spec.ID) {
				owned = append(owned, spec)
			} else if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "headtalkd: tenant %q owned by node %s; serving by forwarding\n", spec.ID, node.Owner(spec.ID))
			}
		}
		specs = owned
		d.defaultID = ""
		if len(specs) > 0 {
			d.defaultID = specs[0].ID
		}
	}

	// Gate training is per (device, room): tenants sharing an
	// environment share one enrollment run instead of re-simulating it.
	// Each tenant still gets its OWN model registry seeded from the
	// shared enrollment — lifecycle state (versions, adaptation, drift)
	// is per-tenant, the trained weights are not.
	enrollments := map[string]*headtalk.Enrollment{}
	for _, spec := range specs {
		cfg := headtalk.Config{}
		tenantMetrics := metrics.NewRegistry()
		var models *headtalk.Registry
		if opts.Enroll {
			key := spec.Device + "|" + spec.Room
			enr, ok := enrollments[key]
			if !ok {
				enr, err = headtalk.Enroll(headtalk.EnrollmentOptions{
					Seed:            opts.Seed,
					Room:            spec.Room,
					Device:          spec.Device,
					OrientationReps: opts.OrientReps,
					LivenessPairs:   opts.LivePairs,
					Progress:        opts.Progress,
				})
				if err != nil {
					_ = d.pool.Close()
					return nil, fmt.Errorf("enrolling gates for tenant %q: %w", spec.ID, err)
				}
				enrollments[key] = enr
			}
			models, err = enr.Registry(headtalk.RegistryConfig{
				Metrics:      tenantMetrics,
				EnsembleMode: opts.Ensemble,
			})
			if err != nil {
				_ = d.pool.Close()
				return nil, fmt.Errorf("seeding model registry for tenant %q: %w", spec.ID, err)
			}
			cfg.Models = models
		}
		var array *mic.Array
		if spec.Device != "" {
			// Match the feature geometry (GCC lag window) to the
			// tenant's array so decision-time extraction agrees with the
			// enrolled model.
			array, err = mic.DeviceByID(spec.Device)
			if err != nil {
				_ = d.pool.Close()
				return nil, fmt.Errorf("tenant %q: %w", spec.ID, err)
			}
			cfg.Features = features.DefaultConfig(array.MaxDelaySamples(48000, 340), 48000)
		}
		cfg.Metrics = tenantMetrics
		sys, serr := headtalk.NewSystem(cfg)
		if serr != nil {
			_ = d.pool.Close()
			return nil, serr
		}
		sys.SetMode(m)
		tcfg := d.tenantConfig(spec.ID, sys, tenantMetrics, array)
		tcfg.Models = models
		if _, err := d.pool.AddTenant(tcfg); err != nil {
			_ = d.pool.Close()
			return nil, err
		}
		d.recordSpec(spec)
	}
	if d.node != nil {
		d.node.Start()
	}
	return d, nil
}

// tenantConfig assembles the serving stack every hosted tenant gets,
// enrolled here or restored from a snapshot: workers, queue, breaker,
// tracing and the continuous-ingest front end. array is the tenant's
// device (nil: none declared). Streamed frames carry its default
// capture subset, the microphones captures and enrollment use rather
// than every element of the array; 4 channels without a device.
//
// Every tenant accepts v2 frames pushes. The stream manager reuses the
// tenant's registry, so its session gauges and early-exit counters
// surface in metrics lines and Prometheus exposition. The default
// tracker attributes every spotted candidate to a speaker by TDoA
// signature; spotted/decided stream lines echo the attribution.
func (d *daemon) tenantConfig(id string, sys *core.System, reg *metrics.Registry, array *mic.Array) pool.TenantConfig {
	streamChannels := 4
	if array != nil {
		streamChannels = len(array.DefaultSubset())
	}
	return pool.TenantConfig{
		ID:               id,
		System:           sys,
		Workers:          d.opts.Workers,
		QueueSize:        d.opts.QueueSize,
		Metrics:          reg,
		BreakerThreshold: d.opts.BreakerThreshold,
		BreakerCooldown:  d.opts.BreakerCooldown,
		TraceCapacity:    d.opts.TraceCapacity,
		SlowThreshold:    d.opts.SlowThreshold,
		TraceEnabled:     d.opts.Trace,
		Streaming: &stream.Config{
			SampleRate: 48000,
			Channels:   streamChannels,
			Spotter:    d.spotter,
			Speakers:   &stream.TrackerConfig{},
		},
	}
}

// restoreEnvelope rebuilds a tenant from a snapshot and activates it
// with restore-then-activate semantics: the whole serving stack
// (models, system, engine) is built and verified first, then swapped
// in over any tenant of that ID, so a failed restore leaves the
// existing tenant serving. Standalone and federated daemons restore
// alike; a restored tenant is served where it was restored.
func (d *daemon) restoreEnvelope(ctx context.Context, env *cluster.Envelope) error {
	reg := metrics.NewRegistry()
	sys, models, err := cluster.BuildSystemWithModels(env, reg)
	if err != nil {
		return err
	}
	device, room, err := env.Profile()
	if err != nil {
		return err
	}
	var array *mic.Array
	if device != "" {
		array, _ = mic.DeviceByID(device)
	}
	tcfg := d.tenantConfig(env.TenantID, sys, reg, array)
	// Registry-managed captures restore registry-managed, so the v5
	// model verbs keep working on the restored tenant.
	tcfg.Models = models
	if _, err := d.pool.ReplaceTenant(ctx, tcfg); err != nil {
		return err
	}
	// The restored tenant keeps its device and room: its snapshots,
	// fused lines and synthesized captures read them.
	d.recordSpec(tenantSpec{ID: env.TenantID, Device: device, Room: room})
	return nil
}

// spec returns the device profile recorded for a hosted tenant (zero
// when it declared none).
func (d *daemon) spec(id string) tenantSpec {
	d.specsMu.RLock()
	defer d.specsMu.RUnlock()
	return d.specs[id]
}

// recordSpec records a hosted tenant's device profile.
func (d *daemon) recordSpec(spec tenantSpec) {
	d.specsMu.Lock()
	d.specs[spec.ID] = spec
	d.specsMu.Unlock()
}

// registerListener records a listener so Shutdown can stop accepting.
func (d *daemon) registerListener(ln net.Listener) {
	d.lnMu.Lock()
	d.listeners = append(d.listeners, ln)
	d.lnMu.Unlock()
}

// Close drains every tenant, finishing in-flight decisions.
func (d *daemon) Close() error { return d.Shutdown(context.Background()) }

// Shutdown is the graceful exit path: stop accepting new connections,
// leave the federation (peers see probes fail and reroute), then drain
// every tenant's queue bounded by ctx. In-flight decisions finish;
// late submissions fail with typed closed/draining errors. Idempotent.
func (d *daemon) Shutdown(ctx context.Context) error {
	var err error
	d.shutdown.Do(func() {
		d.draining.Store(true)
		d.lnMu.Lock()
		for _, ln := range d.listeners {
			_ = ln.Close()
		}
		d.lnMu.Unlock()
		if d.node != nil {
			_ = d.node.Close()
		}
		err = d.pool.Drain(ctx)
	})
	return err
}

// tenant resolves a request's tenant field ("" routes to the default).
func (d *daemon) tenant(id string) (*pool.Tenant, error) {
	if id == "" {
		id = d.defaultID
	}
	t, ok := d.pool.Tenant(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", pool.ErrUnknownTenant, id)
	}
	return t, nil
}

// requestContext returns the context one request is served under,
// bounded by -deadline when it is set.
func (d *daemon) requestContext() (context.Context, context.CancelFunc) {
	if d.opts.Deadline > 0 {
		return context.WithTimeout(context.Background(), d.opts.Deadline)
	}
	return context.Background(), func() {}
}

// snapshot merges the tenants' metrics for the NDJSON metrics line:
// flat names in single-tenant mode (the historical shape), a
// tenant.<id>.-prefixed merge when hosting several.
func (d *daemon) snapshot() metrics.Snapshot {
	var s metrics.Snapshot
	if !d.multiTenant {
		if t, ok := d.pool.Tenant(d.defaultID); ok {
			s = t.Metrics().Snapshot()
		}
	} else {
		s = d.pool.Snapshot()
	}
	if d.node != nil {
		// Fold the federation instrumentation in under its own cluster.*
		// names (ring membership, remap count, per-peer forward health),
		// which no tenant instrument shares.
		s = metrics.MergeSnapshots(s, d.node.Metrics().Snapshot())
	}
	return s
}

// ServeListener accepts TCP connections until the listener closes
// (or Shutdown closes it), one NDJSON stream per connection.
func (d *daemon) ServeListener(ln net.Listener) {
	d.registerListener(ln)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !d.draining.Load() {
				log.Printf("headtalkd: accept: %v", err)
			}
			return
		}
		go func() {
			defer conn.Close()
			if err := d.ServeStream(conn, conn); err != nil {
				log.Printf("headtalkd: %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}
