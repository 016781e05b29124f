// Command perfbench is the served-path benchmark of headtalkd. It
// starts the daemon, drives it over NDJSON in a closed loop with a
// fixed-seed corpus, checks every decision against
// core.System.ProcessWake run in-process on the same request sequence,
// and prints every metric by name and unit. With -trace 1 it also
// replays the corpus in-process, timing the calls into each layer's
// public function, and probes the peer wire through a two-node
// federation.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload wake --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object; the line
// before it stamps the run (host, Go version, source, seed, daemon
// flags, sample counts).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"headtalk/internal/pool"
)

// setupRepeats is how many times a run sets the daemon up; setup_s is
// the median.
const setupRepeats = 9

// runDeadline bounds a whole run; the watchdog kills every daemon and
// fails the run past it.
const runDeadline = 170 * time.Second

type config struct {
	root, daemon, cache string
	workload            string
	seed                uint64
	seconds             int
	trace               int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.daemon, "daemon", "", "headtalkd binary built from the checkout")
	flag.StringVar(&cfg.cache, "cache", "", "cache directory for corpora and the enrollment envelope")
	flag.StringVar(&cfg.workload, "workload", "", "wake | session | listen")
	flag.Uint64Var(&cfg.seed, "seed", 1, "corpus seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "seconds one run measures")
	flag.IntVar(&cfg.trace, "trace", 0, "1: report per-layer metrics from the traced replay")
	flag.Parse()
	if cfg.daemon == "" || cfg.cache == "" {
		fail(errors.New("-daemon and -cache are required (run through perfbench/run.sh)"))
	}
	switch cfg.workload {
	case "wake", "session", "listen":
	default:
		fail(fmt.Errorf("unknown -workload %q", cfg.workload))
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		killAll()
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		os.Exit(2)
	})
	res, err := run(cfg)
	watchdog.Stop()
	killAll()
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	killAll()
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// run executes one benchmark pass.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.cache, 0o755); err != nil {
		return nil, err
	}
	logDir := filepath.Join(cfg.cache, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	envelope, enrollS, err := ensureEnvelope(cfg, logDir)
	if err != nil {
		return nil, err
	}
	c, err := loadCorpus(cfg.cache, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	// Rendering and decoding leave garbage behind; collect it now so the
	// generator's own GC does not compete with the daemon's set-up.
	quiesce()
	kernel := newCalibKernel()
	var kernelMS []float64
	for i := 0; i < 5; i++ {
		kernelMS = append(kernelMS, kernel.time())
	}

	// Set-up: daemon start, restore of the default enrollment, first
	// healthy health reply — several times, the last one kept.
	var (
		setupNS []int64
		tgt     *target
	)
	for i := 0; i < setupRepeats; i++ {
		if tgt != nil {
			tgt.stop()
		}
		kernelMS = append(kernelMS, kernel.time())
		var ns int64
		tgt, ns, err = startStandalone(cfg, envelope, logDir)
		if err != nil {
			return nil, err
		}
		setupNS = append(setupNS, ns)
	}
	defer tgt.stop()

	// The reference outcomes come from an untraced in-process cycle; a
	// traced run takes them from its traced replay instead.
	traced := cfg.trace == 1
	measure := time.Duration(cfg.seconds) * time.Second
	if traced {
		measure /= 2
	}
	ip, err := newInproc(fromEnvelope(envelope), traced)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	expected, rst, err := ip.replayFor(c, measure)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}

	quiesce()
	lr, err := runLoad(tgt, c, expected, kernel, loadOptions{duration: measure, warmOps: warmOps(c), wholeCycles: true})
	if err != nil {
		return nil, err
	}
	kernelMS = append(kernelMS, lr.kernelMS...)
	calib := median(kernelMS)
	scale := refKernelMS / calib

	m := endToEnd(c, lr, setupNS, expected, scale)
	stamp := stampRecord(cfg, tgt, c, lr, setupNS, kernelMS, enrollS)
	res := &result{
		Correct:   len(lr.mismatches) == 0 && lr.errors == 0,
		Attempted: lr.sent,
		Failed:    lr.errors + len(lr.mismatches),
	}
	for i, mm := range lr.mismatches {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more mismatches\n", len(lr.mismatches)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: mismatch: %s\n", mm)
	}
	if !traced {
		res.Metrics = m
	} else {
		lm, err := perLayer(cfg, c, ip, lr, m, setupNS, expected, rst, kernel, scale, calib, envelope, logDir)
		if err != nil {
			return nil, err
		}
		res.Metrics = lm
		counts := map[string]int{}
		for _, sp := range ip.tr.spans {
			counts[sp.Name]++
		}
		stamp["span_counts"] = counts
		stamp["forward_probe_flags"] = strings.Join(clusterArgs("a", "<addr-a>", "b", "<addr-b>", forwardTenant()), " ")
		if err := writeSpans(cfg, ip.tr); err != nil {
			return nil, err
		}
	}
	if err := checkMetrics(cfg, res.Metrics); err != nil {
		return nil, err
	}
	sb, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(sb))
	return res, nil
}

// warmOps is the number of ops at the start of a load phase that are
// checked but not timed.
func warmOps(c *corpus) int {
	n := len(c.Ops) / 8
	if n > 200 {
		n = 200
	}
	return n
}

const standaloneTenant = "dev"

func standaloneArgs() []string {
	return []string{"-no-enroll", "-mode", "headtalk", "-tenants", standaloneTenant + ":" + corpusDevice + "@" + corpusRoom,
		"-workers", "1", "-metrics-every", "0"}
}

// startStandalone starts one daemon, restores the enrollment into its
// tenant and waits for a healthy health reply, timing the whole set-up.
func startStandalone(cfg config, envelope []byte, logDir string) (*target, int64, error) {
	start := time.Now()
	d, err := startDaemon("headtalkd", cfg.daemon, standaloneArgs(), filepath.Join(logDir, "headtalkd.log"))
	if err != nil {
		return nil, 0, err
	}
	t := &target{decide: d, control: d, tenant: standaloneTenant, procs: []*daemonProc{d}}
	if err := restoreAndCheck(d, envelope, standaloneTenant); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(start).Nanoseconds(), nil
}

// forwardTenant returns a tenant id the two-node ring assigns to node
// b, so every decision sent to node a is forwarded.
func forwardTenant() string {
	ring := pool.BuildRing([]string{"a", "b"}, 0)
	for i := 0; ; i++ {
		id := fmt.Sprintf("room%d", i)
		if ring.Route(id) == "b" {
			return id
		}
	}
}

func clusterArgs(self, selfAddr, peer, peerAddr, tenant string) []string {
	return []string{"-no-enroll", "-mode", "headtalk", "-tenants", tenant + ":" + corpusDevice + "@" + corpusRoom,
		"-workers", "1", "-metrics-every", "0",
		"-node-id", self, "-peer-listen", selfAddr, "-peers", peer + "=" + peerAddr}
}

// startCluster starts nodes a and b on loopback, restores the
// enrollment on b (the tenant's owner), and waits until b reports the
// tenant healthy and a answers. Decisions go to a; control requests go
// straight to b, because control verbs are not forwarded.
func startCluster(cfg config, envelope []byte, logDir string) (*target, error) {
	tenant := forwardTenant()
	env, err := retenant(envelope, tenant)
	if err != nil {
		return nil, err
	}
	addrA, err := freePort()
	if err != nil {
		return nil, err
	}
	addrB, err := freePort()
	if err != nil {
		return nil, err
	}
	b, err := startDaemon("headtalkd-b", cfg.daemon, clusterArgs("b", addrB, "a", addrA, tenant), filepath.Join(logDir, "headtalkd-b.log"))
	if err != nil {
		return nil, err
	}
	a, err := startDaemon("headtalkd-a", cfg.daemon, clusterArgs("a", addrA, "b", addrB, tenant), filepath.Join(logDir, "headtalkd-a.log"))
	if err != nil {
		b.stop()
		return nil, err
	}
	t := &target{decide: a, control: b, tenant: tenant, procs: []*daemonProc{a, b}}
	if err := restoreAndCheck(b, env, tenant); err != nil {
		t.stop()
		return nil, err
	}
	// Node a hosts nothing; any answer shows its serve loop is up.
	if _, _, err := a.roundTrip(request(map[string]any{"id": "up", "health": true})); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// retenant rewrites the envelope's tenant id (the checksum covers only
// the payload).
func retenant(envelope []byte, tenant string) ([]byte, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(envelope, &env); err != nil {
		return nil, err
	}
	id, _ := json.Marshal(tenant)
	env["tenant"] = id
	return json.Marshal(env)
}

func restoreAndCheck(d *daemonProc, envelope []byte, tenant string) error {
	line := append(append([]byte(`{"v":3,"id":"restore","restore":`), envelope...), '}')
	r, _, err := d.roundTrip(line)
	if err != nil {
		return err
	}
	if r.Type != "ok" {
		return fmt.Errorf("%s: restore failed: %s (%s)", d.name, r.Error, r.ErrorKind)
	}
	r, _, err = d.roundTrip(request(map[string]any{"id": "health", "tenant": tenant, "health": true}))
	if err != nil {
		return err
	}
	if r.Type != "health" || r.Health == nil || !r.Health.Healthy {
		return fmt.Errorf("%s: tenant not healthy after restore: %+v", d.name, r)
	}
	return nil
}

// ensureEnvelope returns the daemon's default enrollment as a snapshot
// envelope. Enrolling takes tens of seconds, so it is done once per
// daemon build: a daemon enrolls with its default flags, the benchmark
// captures the tenant with a v3 snapshot and caches the envelope. Every
// later daemon start restores it. It also returns the enrollment time
// of the run that made the cache.
func ensureEnvelope(cfg config, logDir string) ([]byte, float64, error) {
	sum, err := fileHash(cfg.daemon)
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(cfg.cache, "enrollment-"+sum[:16]+".json")
	type cached struct {
		EnrollS  float64         `json:"enroll_s"`
		Envelope json.RawMessage `json:"envelope"`
	}
	if b, err := os.ReadFile(path); err == nil {
		var c cached
		if err := json.Unmarshal(b, &c); err == nil && len(c.Envelope) > 0 {
			return c.Envelope, c.EnrollS, nil
		}
	}
	args := []string{"-mode", "headtalk", "-tenants", standaloneTenant + ":" + corpusDevice + "@" + corpusRoom,
		"-workers", "1", "-metrics-every", "0"}
	start := time.Now()
	d, err := startDaemon("headtalkd-enroll", cfg.daemon, args, filepath.Join(logDir, "headtalkd-enroll.log"))
	if err != nil {
		return nil, 0, err
	}
	defer d.stop()
	r, _, err := d.roundTrip(request(map[string]any{"v": 3, "id": "snap", "tenant": standaloneTenant, "snapshot": true}))
	if err != nil {
		return nil, 0, err
	}
	if r.Type != "snapshot" || len(r.Envelope) == 0 {
		return nil, 0, fmt.Errorf("enrollment snapshot failed: %s (%s)", r.Error, r.ErrorKind)
	}
	enrollS := time.Since(start).Seconds()
	b, err := json.Marshal(cached{EnrollS: enrollS, Envelope: r.Envelope})
	if err != nil {
		return nil, 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, 0, err
	}
	return r.Envelope, enrollS, nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sourceHash identifies the code under test: the git commit when the
// checkout is a repository, else a hash over the Go sources.
func sourceHash(root string) string {
	if b, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(b))
		if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(root, ".git", rest)); err == nil {
				return "git:" + strings.TrimSpace(string(c))
			}
		} else {
			return "git:" + ref
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// stampRecord describes the run so numbers are never read out of
// context.
func stampRecord(cfg config, t *target, c *corpus, lr *loadResult, setupNS []int64, kernelMS []float64, enrollS float64) map[string]any {
	var flags []string
	for _, p := range t.procs {
		flags = append(flags, p.name+" "+strings.Join(p.args, " "))
	}
	daemonProcs := os.Getenv("GOMAXPROCS")
	if daemonProcs == "" {
		daemonProcs = fmt.Sprintf("%d (default: nproc)", runtime.NumCPU())
	}
	dec, non := 0, 0
	for _, s := range lr.samples {
		if s.decision {
			dec++
		} else {
			non++
		}
	}
	return map[string]any{
		"workload":             cfg.workload,
		"seed":                 cfg.seed,
		"corpus_seed":          genSeed(cfg.seed),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_daemon":    daemonProcs,
		"go_version":           runtime.Version(),
		"goos_goarch":          runtime.GOOS + "/" + runtime.GOARCH,
		"source":               sourceHash(cfg.root),
		"daemon_flags":         flags,
		"loop":                 "closed, one outstanding request",
		"seconds":              cfg.seconds,
		"trace":                cfg.trace,
		"cycle_ops":            len(c.Ops),
		"samples": map[string]int{
			"decision_p50_ms":    dec,
			"nondecision_p50_us": non,
			"setup_s":            len(setupNS),
			"calib_ms":           len(kernelMS),
		},
		"requests_sent":     lr.sent,
		"enroll_s_uncached": enrollS,
		"ref_kernel_ms":     refKernelMS,
		"calib_ms":          median(kernelMS),
		"setup_ms":          setupMS(setupNS),
		"raw": map[string]float64{
			"decision_p50_ms":    median(wallOf(lr).decisionMS),
			"nondecision_p50_us": median(wallOf(lr).nondecisionUS),
			"cpu_s":              lr.cpuS,
		},
	}
}

func writeSpans(cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.cache, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func setupMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, x := range ns {
		out[i] = durMS(x)
	}
	return out
}

// checkMetrics holds the output to BENCHMARK.json: exactly the declared
// end-to-end (trace 0) or per-layer (trace 1) names, each a finite
// number in its declared unit.
func checkMetrics(cfg config, m map[string]metric) error {
	b, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if cfg.trace == 1 {
		want = spec.PerLayer
	}
	if len(m) != len(want) {
		return fmt.Errorf("produced %d metrics, BENCHMARK.json declares %d", len(m), len(want))
	}
	for _, w := range want {
		got, ok := m[w.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not produced", w.Name)
		case got.Unit != w.Unit:
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json declares %q", w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is not a number", w.Name)
		}
	}
	return nil
}

// quiesce runs a full collection and returns freed memory to the OS, so
// the generator stays idle while the daemon is timed.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}
