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
//	          [-no-enroll] [-ensemble] [-seed N] [-trace] [-trace-capacity N]
//	          [-slow-threshold D] [-debug-addr addr]
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
// Request lines (protocol version 2; "v" may be omitted and then
// means 1 — version 1 requests are still accepted unchanged):
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
// versions (lifecycle state, checksum, active/shadow/previous) plus
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
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"headtalk"
	"headtalk/internal/audio"
	"headtalk/internal/cluster"
	"headtalk/internal/core"
	"headtalk/internal/dataset"
	"headtalk/internal/features"
	"headtalk/internal/metrics"
	"headtalk/internal/mic"
	"headtalk/internal/pool"
	"headtalk/internal/serve"
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
		DrainTimeout:     *drainTO,
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
	// DrainTimeout bounds graceful shutdown's pool drain (0: 10s).
	DrainTimeout time.Duration
}

// defaultTenantID names the single tenant hosted when -tenants is not
// set.
const defaultTenantID = "default"

// protocolVersion is the newest NDJSON protocol this daemon speaks.
// Requests may carry "v"; absent means version 1. Every version from 1
// through protocolVersion is accepted; anything else is rejected with
// error_kind "unsupported_version".
const protocolVersion = 5

// versionGates lists, in check order, the request fields a later
// protocol version introduced. A request using them under a lower "v"
// is rejected with error_kind "unsupported_version".
var versionGates = []struct {
	fields string
	min    int
	uses   func(*request) bool
}{
	// v2: continuous-listening ingest.
	{"frames/end_session", 2, func(r *request) bool { return r.Frames != nil || r.EndSession }},
	// v4: multi-array fused decisions.
	{"arrays", 4, func(r *request) bool { return len(r.Arrays) > 0 }},
	// v5: model-lifecycle control verbs.
	{"model_status/promote/rollback", 5, func(r *request) bool {
		return r.ModelStatus || r.Promote != nil || r.Rollback != ""
	}},
	// v3: federation verbs.
	{"snapshot/restore/join/leave", 3, func(r *request) bool {
		return r.Snapshot || r.Restore != nil || r.Join != nil || r.Leave != ""
	}},
}

// defaultSessionID names the streaming session used when a frames or
// end_session request carries no "session" field.
const defaultSessionID = "default"

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
	specs       map[string]tenantSpec
	opts        daemonOptions

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
			TenantBuilder:  d.restoredTenantConfig,
			Profile: func(tenantID string) (string, string) {
				spec := d.specs[tenantID]
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
	// shared enrollment — lifecycle state (versions, shadow, adaptation,
	// drift) is per-tenant, the trained weights are not.
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
		d.specs[spec.ID] = spec
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

// restoredTenantConfig builds the tenant config for a snapshot
// envelope, with the array of the envelope's recorded device.
func (d *daemon) restoredTenantConfig(env *cluster.Envelope, sys *core.System, reg *metrics.Registry) pool.TenantConfig {
	var array *mic.Array
	if device, _, err := env.Profile(); err == nil && device != "" {
		array, _ = mic.DeviceByID(device)
	}
	return d.tenantConfig(env.TenantID, sys, reg, array)
}

// restoreEnvelope rebuilds and activates a tenant from a snapshot with
// restore-then-activate semantics, with or without a federation node.
func (d *daemon) restoreEnvelope(ctx context.Context, env *cluster.Envelope) error {
	if d.node != nil {
		return d.node.Restore(ctx, env)
	}
	reg := metrics.NewRegistry()
	sys, models, err := cluster.BuildSystemWithModels(env, reg)
	if err != nil {
		return err
	}
	tcfg := d.restoredTenantConfig(env, sys, reg)
	// Registry-managed captures restore registry-managed, so the v5
	// model verbs keep working on the restored tenant.
	tcfg.Models = models
	_, err = d.pool.ReplaceTenant(ctx, tcfg)
	return err
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
		// names (ring membership, remap count, per-peer forward health).
		cs := d.node.Metrics().Snapshot()
		if s.Counters == nil && (len(cs.Counters) > 0 || len(cs.Gauges) > 0 || len(cs.Histograms) > 0) {
			s = metrics.Snapshot{
				Counters:   map[string]uint64{},
				Gauges:     map[string]int64{},
				Histograms: map[string]metrics.HistogramSnapshot{},
			}
		}
		for k, v := range cs.Counters {
			s.Counters[k] = v
		}
		for k, v := range cs.Gauges {
			s.Gauges[k] = v
		}
		for k, v := range cs.Histograms {
			s.Histograms[k] = v
		}
	}
	return s
}

// request is one NDJSON input line.
type request struct {
	// V is the protocol version; nil or 1 selects today's protocol.
	V *int `json:"v,omitempty"`
	// Tenant routes the request inside the pool; empty uses the daemon's
	// default tenant. Applies to decision and control requests alike.
	Tenant string `json:"tenant,omitempty"`
	ID     string `json:"id"`
	// WAV names a multi-channel utterance file on disk.
	WAV string `json:"wav,omitempty"`
	// Condition synthesizes the utterance instead (zero values pick the
	// tenant's device/room, falling back to the paper's defaults: lab
	// room, device D2, "Computer", facing).
	Condition *dataset.Condition `json:"condition,omitempty"`
	// Mode, when set, is a control request switching the tenant's
	// privacy mode.
	Mode string `json:"mode,omitempty"`
	// Health, when true, is a control request for the tenant's health
	// snapshot (breaker state, queue depth, panic counts).
	Health bool `json:"health,omitempty"`
	// Trace has two meanings. Alone ({"trace":true}) it is a control
	// request toggling the tenant's store-wide tracing. Alongside a
	// wav/condition it forces a trace for that one decision (even with
	// the store off) and inlines the stage table in the response.
	Trace *bool `json:"trace,omitempty"`
	// Frames pushes one chunk of 48 kHz multichannel samples (one inner
	// array per microphone channel) into the tenant's streaming session
	// named by Session. Requires protocol version 2.
	Frames [][]float64 `json:"frames,omitempty"`
	// Session names the streaming session Frames and EndSession act on;
	// empty uses "default". Sessions are scoped per tenant.
	Session string `json:"session,omitempty"`
	// EndSession closes the named streaming session, releasing its ring
	// buffer. Requires protocol version 2.
	EndSession bool `json:"end_session,omitempty"`

	// Snapshot captures the tenant's versioned, checksummed state
	// envelope (models, thresholds, profile) — served locally or fetched
	// from the owning peer. Requires protocol version 3.
	Snapshot bool `json:"snapshot,omitempty"`
	// Restore activates the envelope's tenant on THIS node
	// (restore-then-activate: a failed restore leaves any existing
	// tenant serving). Requires protocol version 3.
	Restore *cluster.Envelope `json:"restore,omitempty"`
	// Join adds (or re-addresses) a federation peer; Leave removes one.
	// Both require protocol version 3 and a federated daemon.
	Join  *joinSpec `json:"join,omitempty"`
	Leave string    `json:"leave,omitempty"`

	// Arrays requests a multi-array fused decision: every array's
	// capture of the same utterance runs the tenant's pipeline and the
	// per-array posteriors are fused (health-weighted) into one
	// room-level accept/reject. Requires protocol version 4.
	Arrays []arraySpec `json:"arrays,omitempty"`

	// ModelStatus, when true, reports the tenant's model registry:
	// per-kind versions with lifecycle states and checksums, plus the
	// drift detector's state. Requires protocol version 5.
	ModelStatus bool `json:"model_status,omitempty"`
	// Promote hot-swaps the named version of a model kind to active
	// (atomic, no drain). Requires protocol version 5.
	Promote *promoteSpec `json:"promote,omitempty"`
	// Rollback names a model kind whose previously active version is
	// reactivated, byte-for-byte. Requires protocol version 5.
	Rollback string `json:"rollback,omitempty"`
}

// promoteSpec is the body of a v5 promote request.
type promoteSpec struct {
	// Kind is the model family: orientation | liveness | fingerprint.
	Kind string `json:"kind"`
	// Version is the registry version number to activate.
	Version uint64 `json:"version"`
}

// joinSpec is the body of a v3 join request.
type joinSpec struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

// arraySpec is one array's capture inside a v4 fused request. Exactly
// one of WAV or Condition must be set (matching single-array requests).
type arraySpec struct {
	// ID names the array in the fused response ("kitchen", ...).
	ID string `json:"id,omitempty"`
	// WAV names a multi-channel utterance file on disk.
	WAV string `json:"wav,omitempty"`
	// Condition synthesizes the capture (zero values default to the
	// tenant's device/room).
	Condition *dataset.Condition `json:"condition,omitempty"`
	// Weight overrides the health-derived fusion weight when > 0.
	Weight float64 `json:"weight,omitempty"`
}

// response is one NDJSON output line.
type response struct {
	Type string `json:"type"` // decision | stream | ok | error | health | metrics
	ID   string `json:"id,omitempty"`
	// Tenant echoes which tenant served the line (multi-tenant daemons
	// only; single-tenant responses stay flat).
	Tenant      string   `json:"tenant,omitempty"`
	Accepted    *bool    `json:"accepted,omitempty"`
	Reason      string   `json:"reason,omitempty"`
	ReasonSlug  string   `json:"reason_slug,omitempty"`
	LiveScore   *float64 `json:"live_score,omitempty"`
	FacingScore *float64 `json:"facing_score,omitempty"`
	QueueWaitUS int64    `json:"queue_wait_us,omitempty"`
	TotalUS     int64    `json:"total_us,omitempty"`
	Mode        string   `json:"mode,omitempty"`
	Error       string   `json:"error,omitempty"`
	// ErrorKind classifies error lines so clients can branch without
	// parsing error strings: parse | oversized | unsupported_version |
	// unknown_tenant | request | wav | mode | bad_input | session_limit |
	// panic | breaker_open | backpressure | closed | deadline | pipeline.
	ErrorKind string `json:"error_kind,omitempty"`

	// Session and Status report what one v2 frames push accomplished:
	// how far the chunk got through the early-exit cascade (buffered,
	// silent, no_wake, spotted, decided). SpotScore carries the best
	// wake-word window score once the spotter has a full window; Ended
	// acknowledges an end_session request.
	Session   string   `json:"session,omitempty"`
	Status    string   `json:"status,omitempty"`
	SpotScore *float64 `json:"spot_score,omitempty"`
	Ended     *bool    `json:"ended,omitempty"`
	// Speaker attributes a spotted/decided chunk to a tracked speaker
	// (TDoA-signature clustering across utterances).
	Speaker *speakerEcho `json:"speaker,omitempty"`

	// Arrays carries the per-array breakdown of a v4 fused decision;
	// BestArray names the used array with the strongest facing margin
	// and ArraysUsed/ArraysDropped count how many contributed evidence.
	Arrays        []arrayResult `json:"arrays,omitempty"`
	BestArray     string        `json:"best_array,omitempty"`
	ArraysUsed    int           `json:"arrays_used,omitempty"`
	ArraysDropped int           `json:"arrays_dropped,omitempty"`

	// Forwarded marks a line served by another federation node on the
	// requester's behalf.
	Forwarded bool `json:"forwarded,omitempty"`
	// Envelope answers a v3 snapshot request.
	Envelope *cluster.Envelope `json:"envelope,omitempty"`

	// Models answers a v5 model_status request: every model family's
	// versions with lifecycle states and checksums. Drift rides along
	// with the orientation drift detector's state.
	Models []headtalk.ModelKindStatus `json:"models,omitempty"`
	Drift  *headtalk.DriftState       `json:"drift,omitempty"`
	// Kind and Version echo what a promote/rollback acted on.
	Kind    string `json:"kind,omitempty"`
	Version uint64 `json:"version,omitempty"`

	// TraceEnabled acknowledges a {"trace":...} control request.
	TraceEnabled *bool `json:"trace_enabled,omitempty"`
	// TraceID names the retained trace for a decision served while
	// tracing is on; fetch it later from the debug listener.
	TraceID string `json:"trace_id,omitempty"`
	// Trace inlines the full stage breakdown when the request forced a
	// per-decision trace with "trace":true.
	Trace *trace.Trace `json:"trace,omitempty"`

	Health *healthInfo `json:"health,omitempty"`

	Counters  map[string]uint64         `json:"counters,omitempty"`
	Gauges    map[string]int64          `json:"gauges,omitempty"`
	Latencies map[string]latencySummary `json:"latencies,omitempty"`
}

// speakerEcho is the per-speaker attribution on a stream line: the
// tracker-assigned identity, how many utterances it has produced, and
// its cross-utterance mean facing margin (zero until an orientation
// gate has run for this speaker).
type speakerEcho struct {
	ID         string  `json:"id"`
	Utterances int     `json:"utterances"`
	MeanFacing float64 `json:"mean_facing"`
}

// arrayResult is one array's line item inside a fused response.
type arrayResult struct {
	ID          string   `json:"id"`
	Accepted    *bool    `json:"accepted,omitempty"`
	ReasonSlug  string   `json:"reason_slug,omitempty"`
	LiveScore   *float64 `json:"live_score,omitempty"`
	FacingScore *float64 `json:"facing_score,omitempty"`
	Error       string   `json:"error,omitempty"`
}

// healthInfo is the body of a health line: one tenant's serving
// fitness plus its privacy mode.
type healthInfo struct {
	Tenant              string `json:"tenant,omitempty"`
	State               string `json:"state"`
	Healthy             bool   `json:"healthy"`
	Mode                string `json:"mode"`
	Workers             int    `json:"workers"`
	QueueDepth          int    `json:"queue_depth"`
	QueueCapacity       int    `json:"queue_capacity"`
	Breaker             string `json:"breaker"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Panics              uint64 `json:"panics"`
	Submitted           uint64 `json:"submitted"`
	Completed           uint64 `json:"completed"`
	BreakerRejected     uint64 `json:"breaker_rejected"`
}

// tenantHealth snapshots one tenant into a health body.
func (d *daemon) tenantHealth(t *pool.Tenant) *healthInfo {
	h := t.Health()
	info := &healthInfo{
		State:               h.State,
		Healthy:             h.Healthy,
		Mode:                t.System().Mode().String(),
		Workers:             h.Workers,
		QueueDepth:          h.QueueDepth,
		QueueCapacity:       h.QueueCapacity,
		Breaker:             h.Breaker,
		ConsecutiveFailures: h.ConsecutiveFailures,
		Panics:              h.Panics,
		Submitted:           h.Submitted,
		Completed:           h.Completed,
		BreakerRejected:     h.BreakerRejected,
	}
	if d.multiTenant {
		info.Tenant = t.ID()
	}
	return info
}

// healthResponse snapshots one tenant into a health line.
func (d *daemon) healthResponse(t *pool.Tenant, id string) response {
	return response{
		Type:   "health",
		ID:     id,
		Tenant: d.echoTenant(t),
		Health: d.tenantHealth(t),
	}
}

// echoTenant returns the tenant id for response echoing (multi-tenant
// daemons only).
func (d *daemon) echoTenant(t *pool.Tenant) string {
	if d.multiTenant {
		return t.ID()
	}
	return ""
}

// errorKind classifies a serving-path error for the error_kind field.
func errorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, pool.ErrUnknownTenant), errors.Is(err, pool.ErrNoRoute):
		return "unknown_tenant"
	case errors.Is(err, serve.ErrQueueFull):
		return "backpressure"
	case errors.Is(err, serve.ErrClosed), errors.Is(err, serve.ErrNotStarted),
		errors.Is(err, pool.ErrPoolClosed), errors.Is(err, stream.ErrClosed):
		return "closed"
	case errors.Is(err, serve.ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, stream.ErrSessionLimit):
		return "session_limit"
	case errors.Is(err, stream.ErrBadFrame):
		return "bad_input"
	case errors.Is(err, serve.ErrNoStream):
		return "request"
	case errors.Is(err, cluster.ErrPeerUnavailable):
		return "peer_unavailable"
	case errors.Is(err, cluster.ErrSnapshotVersion), errors.Is(err, cluster.ErrSnapshotChecksum), errors.Is(err, cluster.ErrSnapshotCorrupt):
		return "snapshot"
	case errors.Is(err, headtalk.ErrModelVersion), errors.Is(err, headtalk.ErrModelCorrupt):
		return "model"
	case serve.IsPanic(err):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline"
	}
	// A forwarded request the owning peer rejected surfaces the peer's
	// own error_kind verbatim.
	var remote *cluster.RemoteError
	if errors.As(err, &remote) && remote.Kind != "" {
		return remote.Kind
	}
	if _, ok := audio.AsBadInput(err); ok {
		return "bad_input"
	}
	return "pipeline"
}

// latencySummary renders one histogram for the metrics line.
type latencySummary struct {
	Count  uint64 `json:"count"`
	MeanUS int64  `json:"mean_us"`
	P50US  int64  `json:"p50_us"`
	P90US  int64  `json:"p90_us"`
	P99US  int64  `json:"p99_us"`
	MaxUS  int64  `json:"max_us"`
}

func metricsResponse(s metrics.Snapshot) response {
	resp := response{
		Type:      "metrics",
		Counters:  s.Counters,
		Gauges:    s.Gauges,
		Latencies: make(map[string]latencySummary, len(s.Histograms)),
	}
	us := func(sec float64) int64 { return int64(sec * 1e6) }
	for name, h := range s.Histograms {
		resp.Latencies[name] = latencySummary{
			Count:  h.Count,
			MeanUS: us(h.Mean()),
			P50US:  us(h.Quantile(0.5)),
			P90US:  us(h.Quantile(0.9)),
			P99US:  us(h.Quantile(0.99)),
			MaxUS:  us(h.Max),
		}
	}
	return resp
}

// lineWriter serializes NDJSON writes from workers, the reader loop
// and the metrics ticker.
type lineWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (lw *lineWriter) write(resp response) {
	data, err := json.Marshal(resp)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"type":"error","error":%q}`, err.Error()))
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.w.Write(data)
	lw.w.WriteByte('\n')
	lw.w.Flush()
}

// loadRecording resolves a request into a microphone-array recording.
// kind classifies any failure for the error_kind field: "request" for
// malformed request shapes, "wav" for unreadable or unparsable WAV
// paths, "condition" for synthesis failures. Synthetic conditions
// default their device and room to the serving tenant's spec, so a
// D1 tenant's captures come off a D1 array unless the request says
// otherwise.
func (d *daemon) loadRecording(req request, spec tenantSpec) (rec *audio.Recording, kind string, err error) {
	switch {
	case req.WAV != "" && req.Condition != nil:
		return nil, "request", fmt.Errorf("request has both wav and condition")
	case req.WAV != "":
		f, err := os.Open(req.WAV)
		if err != nil {
			return nil, "wav", err
		}
		defer f.Close()
		rec, err = audio.ReadWAV(f)
		if err != nil {
			return nil, "wav", err
		}
		return rec, "", nil
	case req.Condition != nil:
		cond := *req.Condition
		if cond.Device == "" {
			cond.Device = spec.Device
		}
		if cond.Room == "" {
			cond.Room = spec.Room
		}
		d.genMu.Lock()
		defer d.genMu.Unlock()
		rec, err = dataset.CaptureRecording(d.gen, cond)
		if err != nil {
			return nil, "condition", err
		}
		return rec, "", nil
	default:
		return nil, "request", fmt.Errorf("request needs wav or condition")
	}
}

// handle dispatches one request line; decision responses are written
// asynchronously from engine workers.
func (d *daemon) handle(req request, lw *lineWriter, inflight *sync.WaitGroup) {
	v := 1
	if req.V != nil {
		v = *req.V
	}
	if v < 1 || v > protocolVersion {
		lw.write(response{
			Type:      "error",
			ID:        req.ID,
			Error:     fmt.Sprintf("unsupported protocol version %d (supported: 1..%d)", v, protocolVersion),
			ErrorKind: "unsupported_version",
		})
		return
	}
	for _, g := range versionGates {
		if v < g.min && g.uses(&req) {
			lw.write(response{
				Type:      "error",
				ID:        req.ID,
				Error:     fmt.Sprintf("%s require protocol version %d (request is version %d)", g.fields, g.min, v),
				ErrorKind: "unsupported_version",
			})
			return
		}
	}
	if req.Restore != nil || req.Join != nil || req.Leave != "" {
		d.handleCluster(req, lw)
		return
	}
	t, err := d.tenant(req.Tenant)
	if err != nil {
		// A federated daemon serves non-hosted tenants by forwarding to
		// the ring owner; control verbs stay node-local.
		if d.node != nil && errors.Is(err, pool.ErrUnknownTenant) && req.Tenant != "" {
			d.handleForward(req, lw, inflight)
			return
		}
		lw.write(response{Type: "error", ID: req.ID, Error: err.Error(), ErrorKind: errorKind(err)})
		return
	}
	echo := d.echoTenant(t)
	if req.Health {
		lw.write(d.healthResponse(t, req.ID))
		return
	}
	if req.Snapshot {
		spec := d.specs[t.ID()]
		env, err := cluster.CaptureTenant(t, spec.Device, spec.Room)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: errorKind(err)})
			return
		}
		lw.write(response{Type: "snapshot", ID: req.ID, Tenant: echo, Envelope: env})
		return
	}
	if req.ModelStatus || req.Promote != nil || req.Rollback != "" {
		d.handleModels(req, t, lw)
		return
	}
	if req.Frames != nil || req.EndSession {
		d.handleStream(req, t, lw)
		return
	}
	if len(req.Arrays) > 0 {
		d.handleFused(req, t, lw)
		return
	}
	if req.Trace != nil && req.WAV == "" && req.Condition == nil && req.Mode == "" {
		// Bare {"trace":...} is a control request: flip the tenant's
		// store-wide tracing for every subsequent decision.
		t.Traces().SetEnabled(*req.Trace)
		enabled := t.Traces().Enabled()
		lw.write(response{Type: "ok", ID: req.ID, Tenant: echo, TraceEnabled: &enabled})
		return
	}
	if req.Mode != "" {
		m, err := core.ParseMode(req.Mode)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: "mode"})
			return
		}
		t.System().SetMode(m)
		lw.write(response{Type: "ok", ID: req.ID, Tenant: echo, Mode: m.String()})
		return
	}
	rec, kind, err := d.loadRecording(req, d.specs[t.ID()])
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: kind})
		return
	}
	ctx, cancel := d.requestContext()
	forceTrace := req.Trace != nil && *req.Trace
	if forceTrace {
		ctx = trace.NewContext(ctx, t.Traces().NewRecorder())
	}
	inflight.Add(1)
	_, err = t.Engine().Submit(ctx, serve.Request{
		ID:        req.ID,
		Recording: rec,
		Callback: func(res serve.Result) {
			defer inflight.Done()
			defer cancel()
			if res.Err != nil {
				resp := response{Type: "error", ID: res.ID, Tenant: echo, Error: res.Err.Error(), ErrorKind: errorKind(res.Err), TraceID: res.TraceID}
				if forceTrace {
					resp.Trace = res.Trace
				}
				// Fail-closed paths still carry a typed reject reason
				// (bad_input, panic, unhealthy) — surface it so clients
				// see the decision the error produced.
				if res.Decision.Reason != "" {
					resp.ReasonSlug = res.Decision.Reason.Slug()
				}
				lw.write(resp)
				return
			}
			resp := decisionResponse(res.ID, echo, res.Decision)
			resp.QueueWaitUS = res.QueueWait.Microseconds()
			resp.TotalUS = res.Total.Microseconds()
			resp.TraceID = res.TraceID
			if forceTrace {
				resp.Trace = res.Trace
			}
			lw.write(resp)
		},
	})
	if err != nil {
		// Submission rejected (backpressure or shutdown): the callback
		// will never fire.
		inflight.Done()
		cancel()
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: errorKind(err)})
	}
}

// handleFused serves a protocol-v4 multi-array decision: every array's
// capture is resolved like a single-array request, the tenant's engine
// decides each through its normal serving path, and the fused
// room-level outcome plus the per-array breakdown is written as one
// "fused" line. Pushes run synchronously — the per-array decisions ride
// the engine's blocking Decide path concurrently.
func (d *daemon) handleFused(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	spec := d.specs[t.ID()]
	inputs := make([]serve.ArrayInput, len(req.Arrays))
	for i, a := range req.Arrays {
		id := a.ID
		if id == "" {
			id = fmt.Sprintf("array-%d", i)
		}
		rec, kind, err := d.loadRecording(request{WAV: a.WAV, Condition: a.Condition}, spec)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: fmt.Sprintf("array %s: %v", id, err), ErrorKind: kind})
			return
		}
		inputs[i] = serve.ArrayInput{ArrayID: id, Recording: rec, Weight: a.Weight}
	}
	ctx, cancel := d.requestContext()
	defer cancel()
	room, reports, err := t.Engine().DecideFused(ctx, inputs)
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: errorKind(err)})
		return
	}
	resp := response{
		Type:          "fused",
		ID:            req.ID,
		Tenant:        echo,
		Accepted:      &room.Accepted,
		Reason:        string(room.Reason),
		ReasonSlug:    room.Reason.Slug(),
		BestArray:     room.BestArray,
		ArraysUsed:    room.ArraysUsed,
		ArraysDropped: room.ArraysDropped,
	}
	if room.LiveRan {
		resp.LiveScore = &room.FusedLive
	}
	if room.FacingRan {
		resp.FacingScore = &room.FusedFacing
	}
	resp.Arrays = make([]arrayResult, len(reports))
	for i := range reports {
		r := &reports[i]
		ar := arrayResult{ID: r.ArrayID}
		if r.Err != nil {
			ar.Error = r.Err.Error()
		} else {
			acc := r.Decision.Accepted
			ar.Accepted = &acc
			ar.ReasonSlug = r.Decision.Reason.Slug()
			if r.Decision.LiveRan {
				ls := r.Decision.LiveScore
				ar.LiveScore = &ls
			}
			if r.Decision.FacingRan {
				fs := r.Decision.FacingScore
				ar.FacingScore = &fs
			}
		}
		resp.Arrays[i] = ar
	}
	lw.write(resp)
}

// handleStream serves protocol-v2 frames and end_session requests.
// Pushes run synchronously: the early-exit cascade answers most chunks
// in microseconds, and a spotted candidate rides the engine's normal
// submission path (queue, breaker, tracing) before the response line is
// written.
func (d *daemon) handleStream(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	sid := req.Session
	if sid == "" {
		sid = defaultSessionID
	}
	if req.EndSession {
		ended, err := t.Engine().EndSession(sid)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: errorKind(err)})
			return
		}
		lw.write(response{Type: "stream", ID: req.ID, Tenant: echo, Session: sid, Ended: &ended})
		return
	}

	ctx, cancel := d.requestContext()
	defer cancel()
	res, err := t.Engine().PushFrames(ctx, sid, req.Frames)
	if err != nil {
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: errorKind(err)})
		return
	}
	if res.Err != nil {
		// The chunk was spotted but the decision pipeline failed
		// (backpressure, breaker, pipeline error): surface it as a typed
		// error so clients can retry or back off.
		lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Status: res.Status.String(), Error: res.Err.Error(), ErrorKind: errorKind(res.Err)})
		return
	}
	lw.write(streamResponse(req.ID, echo, sid, &res))
}

// decisionResponse renders one decision line; callers add the fields
// of their serving path (timings, trace, forwarded).
func decisionResponse(id, tenant string, dec core.Decision) response {
	resp := response{
		Type:       "decision",
		ID:         id,
		Tenant:     tenant,
		Accepted:   &dec.Accepted,
		Reason:     string(dec.Reason),
		ReasonSlug: dec.Reason.Slug(),
	}
	if dec.LiveRan {
		resp.LiveScore = &dec.LiveScore
	}
	if dec.FacingRan {
		resp.FacingScore = &dec.FacingScore
	}
	return resp
}

// streamResponse renders the stream line for one frames push.
func streamResponse(id, tenant, sid string, res *stream.PushResult) response {
	resp := response{Type: "stream", ID: id, Tenant: tenant, Session: sid, Status: res.Status.String()}
	switch res.Status {
	case stream.StatusNoWake, stream.StatusSpotted, stream.StatusDecided:
		score := res.SpotScore
		resp.SpotScore = &score
	}
	if spk := res.Speaker; spk != nil {
		resp.Speaker = &speakerEcho{ID: spk.ID, Utterances: spk.Utterances, MeanFacing: spk.MeanFacing}
	}
	if dec := res.Decision; dec != nil {
		resp.Accepted = &dec.Accepted
		resp.Reason = string(dec.Reason)
		resp.ReasonSlug = dec.Reason.Slug()
	}
	return resp
}

// echoID returns a tenant id for response echoing on paths with no
// local *pool.Tenant (forwards, restores). Federated daemons always
// echo — tenant identity is what routing is about.
func (d *daemon) echoID(id string) string {
	if d.multiTenant || d.node != nil {
		return id
	}
	return ""
}

// handleModels serves the v5 model-lifecycle control verbs against the
// tenant's model registry: model_status (per-kind versions, lifecycle
// states, checksums, drift), promote (atomic hot-swap, no drain) and
// rollback (reactivate the previous version byte-for-byte). Like mode
// and health they act on node-local state and are never forwarded.
func (d *daemon) handleModels(req request, t *pool.Tenant, lw *lineWriter) {
	echo := d.echoTenant(t)
	reg := t.Models()
	if reg == nil {
		lw.write(response{
			Type:      "error",
			ID:        req.ID,
			Tenant:    echo,
			Error:     "tenant has no model registry (daemon started with -no-enroll?)",
			ErrorKind: "request",
		})
		return
	}
	switch {
	case req.ModelStatus:
		drift := reg.DriftState()
		lw.write(response{
			Type:   "models",
			ID:     req.ID,
			Tenant: echo,
			Models: reg.Status(),
			Drift:  &drift,
		})
	case req.Promote != nil:
		kind := headtalk.ModelKind(req.Promote.Kind)
		switch kind {
		case headtalk.KindOrientation, headtalk.KindLiveness, headtalk.KindArrayFingerprint:
		default:
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: fmt.Sprintf("unknown model kind %q (want orientation|liveness|fingerprint)", req.Promote.Kind), ErrorKind: "request"})
			return
		}
		if err := reg.Promote(kind, req.Promote.Version); err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: "request"})
			return
		}
		lw.write(response{Type: "ok", ID: req.ID, Tenant: echo, Kind: string(kind), Version: req.Promote.Version})
	case req.Rollback != "":
		kind := headtalk.ModelKind(req.Rollback)
		switch kind {
		case headtalk.KindOrientation, headtalk.KindLiveness, headtalk.KindArrayFingerprint:
		default:
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: fmt.Sprintf("unknown model kind %q (want orientation|liveness|fingerprint)", req.Rollback), ErrorKind: "request"})
			return
		}
		restored, err := reg.Rollback(kind)
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: "request"})
			return
		}
		lw.write(response{Type: "ok", ID: req.ID, Tenant: echo, Kind: string(kind), Version: restored})
	}
}

// handleCluster serves the v3 federation control verbs: restore (this
// node), join and leave (membership).
func (d *daemon) handleCluster(req request, lw *lineWriter) {
	switch {
	case req.Restore != nil:
		ctx, cancel := d.requestContext()
		defer cancel()
		if err := d.restoreEnvelope(ctx, req.Restore); err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: d.echoID(req.Restore.TenantID), Error: err.Error(), ErrorKind: errorKind(err)})
			return
		}
		lw.write(response{Type: "ok", ID: req.ID, Tenant: d.echoID(req.Restore.TenantID)})
	case req.Join != nil:
		if d.node == nil {
			lw.write(response{Type: "error", ID: req.ID, Error: "this daemon is not part of a federation (start with -node-id)", ErrorKind: "request"})
			return
		}
		if err := d.node.Join(req.Join.Node, req.Join.Addr); err != nil {
			lw.write(response{Type: "error", ID: req.ID, Error: err.Error(), ErrorKind: "request"})
			return
		}
		lw.write(response{Type: "ok", ID: req.ID})
	case req.Leave != "":
		if d.node == nil {
			lw.write(response{Type: "error", ID: req.ID, Error: "this daemon is not part of a federation (start with -node-id)", ErrorKind: "request"})
			return
		}
		if err := d.node.Leave(req.Leave); err != nil {
			lw.write(response{Type: "error", ID: req.ID, Error: err.Error(), ErrorKind: "request"})
			return
		}
		lw.write(response{Type: "ok", ID: req.ID})
	}
}

// handleForward serves a request for a tenant this node does not host
// by forwarding it to the ring owner. Forwards run on their own
// goroutines — never on pool workers — so a slow or dead peer can only
// ever stall its own caller, not local serving capacity. Control verbs
// (mode, health, trace) are deliberately not forwarded: they act on
// node-local state, so clients must address the owning node directly.
func (d *daemon) handleForward(req request, lw *lineWriter, inflight *sync.WaitGroup) {
	tid := req.Tenant
	echo := d.echoID(tid)
	if req.Health || req.Mode != "" || req.ModelStatus || req.Promote != nil || req.Rollback != "" ||
		(req.Trace != nil && req.WAV == "" && req.Condition == nil) {
		lw.write(response{
			Type:      "error",
			ID:        req.ID,
			Tenant:    echo,
			Error:     fmt.Sprintf("tenant %q is owned by node %s; control requests are not forwarded", tid, d.node.Owner(tid)),
			ErrorKind: "request",
		})
		return
	}
	// The recording is resolved locally (WAV paths and synth conditions
	// are this node's resources) before the samples cross the wire.
	// The forward runs after ServeStream has moved on to later lines,
	// so the frames leave the connection's reused decode buffer here.
	req.Frames = copyFrames(req.Frames)
	var rec *audio.Recording
	if !req.Snapshot && req.Frames == nil && !req.EndSession {
		var kind string
		var err error
		rec, kind, err = d.loadRecording(req, tenantSpec{})
		if err != nil {
			lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: kind})
			return
		}
	}
	inflight.Add(1)
	go func() {
		defer inflight.Done()
		ctx, cancel := d.requestContext()
		defer cancel()
		sid := req.Session
		if sid == "" {
			sid = defaultSessionID
		}
		switch {
		case req.Snapshot:
			env, _, err := d.node.Snapshot(ctx, tid)
			if err != nil {
				lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: errorKind(err), Forwarded: true})
				return
			}
			lw.write(response{Type: "snapshot", ID: req.ID, Tenant: echo, Envelope: env, Forwarded: true})
		case req.EndSession:
			ended, _, err := d.node.EndSession(ctx, tid, sid)
			if err != nil {
				lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: errorKind(err), Forwarded: true})
				return
			}
			lw.write(response{Type: "stream", ID: req.ID, Tenant: echo, Session: sid, Ended: &ended, Forwarded: true})
		case req.Frames != nil:
			res, _, err := d.node.PushFrames(ctx, tid, sid, req.Frames)
			if err != nil {
				lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Session: sid, Error: err.Error(), ErrorKind: errorKind(err), Forwarded: true})
				return
			}
			// The peer wire carries no speaker attribution, so a
			// forwarded line never echoes one.
			res.Speaker = nil
			resp := streamResponse(req.ID, echo, sid, &res)
			resp.Forwarded = true
			lw.write(resp)
		default:
			start := time.Now()
			dec, _, err := d.node.Decide(ctx, tid, rec)
			if err != nil {
				lw.write(response{Type: "error", ID: req.ID, Tenant: echo, Error: err.Error(), ErrorKind: errorKind(err), Forwarded: true})
				return
			}
			resp := decisionResponse(req.ID, echo, dec)
			resp.TotalUS = time.Since(start).Microseconds()
			resp.Forwarded = true
			lw.write(resp)
		}
	}()
}

// ServeStream serves NDJSON requests from r, writing responses to w,
// until EOF. It waits for in-flight decisions before returning.
func (d *daemon) ServeStream(r io.Reader, w io.Writer) error {
	lw := &lineWriter{w: bufio.NewWriter(w)}
	var inflight sync.WaitGroup

	stopMetrics := make(chan struct{})
	var tickerDone sync.WaitGroup
	if d.opts.MetricsEvery > 0 {
		tickerDone.Add(1)
		go func() {
			defer tickerDone.Done()
			t := time.NewTicker(d.opts.MetricsEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					lw.write(metricsResponse(d.snapshot()))
				case <-stopMetrics:
					return
				}
			}
		}()
	}

	// A bufio.Scanner would die with ErrTooLong on the first oversized
	// line — one hostile request killing the whole connection (and, on
	// stdin, the daemon). cluster.ReadBoundedLine discards past-limit
	// lines so the stream reports them and keeps serving.
	br := bufio.NewReaderSize(r, 64*1024)
	var (
		readErr error
		line    []byte // reused for every line of the connection
		frames  framesDecoder
	)
	for {
		var err error
		line, err = cluster.ReadBoundedLine(br, line, maxRequestLine)
		if err == io.EOF {
			break
		}
		if errors.Is(err, cluster.ErrLineTooLong) {
			lw.write(response{
				Type:      "error",
				Error:     fmt.Sprintf("request line exceeds %d bytes; dropped", maxRequestLine),
				ErrorKind: "oversized",
			})
			continue
		}
		if err != nil {
			readErr = err
			break
		}
		if len(line) == 0 {
			continue
		}
		// Frames pushes take the one-pass decoder; every other line, and
		// any frames line it declines, takes encoding/json.
		var req request
		if !frames.decode(line, &req) {
			if err := json.Unmarshal(line, &req); err != nil {
				lw.write(response{Type: "error", Error: fmt.Sprintf("bad request: %v", err), ErrorKind: "parse"})
				continue
			}
		}
		d.handle(req, lw, &inflight)
	}
	inflight.Wait()
	close(stopMetrics)
	tickerDone.Wait()
	// A final summary so batch (stdin) runs always end with the tallies.
	if d.opts.MetricsEvery > 0 {
		lw.write(metricsResponse(d.snapshot()))
	}
	return readErr
}

// maxRequestLine bounds one NDJSON request line. The largest lines are
// frames pushes: a 10 ms chunk of 4 channels × 480 samples is ~40 KB,
// so 4 MiB admits chunks of up to ~200 000 samples in all (about a
// second of 4-channel audio per push), while a hostile line is dropped
// before it can grow without limit.
const maxRequestLine = 4 * 1024 * 1024

// debugMux builds the opt-in debug HTTP handler: pprof, Prometheus
// metrics, recent/slow traces and a health probe. It is deliberately
// not mounted on the default mux — the daemon exposes it only when
// -debug-addr is set.
func (d *daemon) debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if d.multiTenant {
			// One scrape, one TYPE header per metric, a tenant label on
			// every sample.
			_ = metrics.WritePrometheusGrouped(w, "tenant", d.pool.TenantSnapshots())
			return
		}
		_ = d.snapshot().WritePrometheus(w)
	})
	// traceStore resolves the optional ?tenant= selector, answering 404
	// for unknown tenants.
	traceStore := func(w http.ResponseWriter, r *http.Request) *trace.Store {
		t, err := d.tenant(r.URL.Query().Get("tenant"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return nil
		}
		return t.Traces()
	}
	writeTraces := func(w http.ResponseWriter, st *trace.Store, traces []*trace.Trace) {
		droppedRecent, droppedSlow := st.Dropped()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"enabled":        st.Enabled(),
			"dropped_recent": droppedRecent,
			"dropped_slow":   droppedSlow,
			"traces":         traces,
		})
	}
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if st := traceStore(w, r); st != nil {
			writeTraces(w, st, st.Recent(parseLimit(r)))
		}
	})
	mux.HandleFunc("/debug/traces/slow", func(w http.ResponseWriter, r *http.Request) {
		if st := traceStore(w, r); st != nil {
			writeTraces(w, st, st.Slow(parseLimit(r)))
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		ph := d.pool.HealthSnapshot()
		w.Header().Set("Content-Type", "application/json")
		if !ph.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		tenants := make(map[string]*healthInfo, ph.TenantCount)
		for id := range ph.Tenants {
			if t, ok := d.pool.Tenant(id); ok {
				tenants[id] = d.tenantHealth(t)
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"healthy": ph.Healthy,
			"tenants": tenants,
		})
	})
	return mux
}

// parseLimit reads an optional ?limit=N query (0: all).
func parseLimit(r *http.Request) int {
	var n int
	fmt.Sscanf(r.URL.Query().Get("limit"), "%d", &n)
	if n < 0 {
		n = 0
	}
	return n
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
