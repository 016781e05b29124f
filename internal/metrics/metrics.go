// Package metrics is a dependency-free instrumentation substrate for
// the serving layer: atomic counters and gauges, fixed-bucket latency
// histograms with quantile snapshots, and a named registry with a text
// rendering. It exists so the decision engine (internal/serve) and the
// core pipeline can report queue wait, per-gate latency and
// accept/reject counts without pulling an external metrics client into
// a stdlib-only build.
//
// All instruments are safe for concurrent use. The hot-path operations
// (Counter.Add, Gauge.Set, Histogram.Observe) are lock-free; only
// registry lookups that create a new instrument take a lock, so
// callers should hold on to instruments instead of re-resolving them
// per observation.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depth, active
// workers).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into fixed buckets chosen at
// construction. Observations and snapshots are lock-free; the bucket
// layout is immutable after New so concurrent Observe calls never
// contend on anything but the target bucket's atomic add.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    *atomicExtreme
	max    *atomicExtreme
}

// atomicFloat accumulates a float64 sum with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// atomicExtreme tracks a running min or max with compare-and-swap.
// Initialize with the neutral element (+Inf for min, -Inf for max).
type atomicExtreme struct {
	bits atomic.Uint64
}

func newExtreme(neutral float64) *atomicExtreme {
	e := &atomicExtreme{}
	e.bits.Store(math.Float64bits(neutral))
	return e
}

func (m *atomicExtreme) update(v float64, better func(a, b float64) bool) {
	for {
		old := m.bits.Load()
		if !better(v, math.Float64frombits(old)) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicExtreme) value() float64 { return math.Float64frombits(m.bits.Load()) }

// DefaultLatencyBuckets spans 50 µs – 5 s in roughly geometric steps,
// wide enough for both gate latencies (tens of ms in the paper's
// §IV-B15 measurements) and queue waits under saturation. Values are
// seconds.
var DefaultLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (an implicit +Inf bucket is appended). Nil bounds select
// DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
		min:    newExtreme(math.Inf(1)),
		max:    newExtreme(math.Inf(-1)),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.min.update(v, func(a, b float64) bool { return a < b })
	h.max.update(v, func(a, b float64) bool { return a > b })
}

// ObserveDuration records a time.Duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	Bounds  []float64 // upper bounds; Counts has one extra +Inf entry
	Counts  []uint64
	HasData bool
}

// Mean returns the average observation, or 0 with no data.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing bucket. Estimates are clamped to
// the observed [Min, Max] so sparse tails don't report a bucket edge
// beyond any real observation.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo := s.Min
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) {
			hi = math.Min(s.Bounds[i], s.Max)
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - seen) / float64(c)
		v := lo + frac*(hi-lo)
		return math.Max(s.Min, math.Min(v, s.Max))
	}
	return s.Max
}

// Snapshot copies the histogram state. Concurrent Observe calls may
// land between field reads; totals are still self-consistent enough
// for reporting (this is a monitoring API, not an audit log).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.value()
		s.Max = h.max.value()
		s.HasData = true
	}
	return s
}

// Registry is a named collection of instruments. Lookups create on
// first use; the instrument type of an existing name must match or the
// lookup panics (a programming error, caught immediately in tests).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	hbounds    map[string][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		hbounds:    make(map[string][]float64),
	}
}

func (r *Registry) checkName(name string, want string) {
	if _, ok := r.counters[name]; ok && want != "counter" {
		panic(fmt.Sprintf("metrics: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && want != "gauge" {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge", name))
	}
	if _, ok := r.histograms[name]; ok && want != "histogram" {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (nil = DefaultLatencyBuckets). Later calls
// ignore bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
		r.hbounds[name] = h.bounds
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies all instruments for programmatic scraping.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.Snapshot()
	}
	return s
}

// WriteText renders the snapshot as sorted human-readable lines:
// counters and gauges one per line, histograms with count, mean and
// p50/p90/p99 quantiles. Latencies (any histogram observed in
// seconds) render with time units.
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%-44s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "%-44s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "%-44s count=%d mean=%s p50=%s p90=%s p99=%s max=%s\n",
			k, h.Count,
			formatSeconds(h.Mean()), formatSeconds(h.Quantile(0.5)),
			formatSeconds(h.Quantile(0.9)), formatSeconds(h.Quantile(0.99)),
			formatSeconds(h.Max)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the snapshot via WriteText.
func (s Snapshot) String() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

// formatSeconds renders a duration measured in seconds with a sensible
// unit (µs/ms/s).
func formatSeconds(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.2fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}
