package metrics

import (
	"strings"
	"testing"
)

func snapshotFor(t *testing.T, fill func(*Registry)) Snapshot {
	t.Helper()
	r := NewRegistry()
	fill(r)
	return r.Snapshot()
}

func TestSnapshotPrefixed(t *testing.T) {
	s := snapshotFor(t, func(r *Registry) {
		r.Counter("serve.completed").Add(3)
		r.Gauge("serve.queue.depth").Set(2)
		r.Histogram("serve.latency", nil).Observe(0.01)
	})
	p := s.Prefixed("tenant.lab.")
	if p.Counters["tenant.lab.serve.completed"] != 3 {
		t.Fatalf("prefixed counters %v", p.Counters)
	}
	if p.Gauges["tenant.lab.serve.queue.depth"] != 2 {
		t.Fatalf("prefixed gauges %v", p.Gauges)
	}
	if h, ok := p.Histograms["tenant.lab.serve.latency"]; !ok || h.Count != 1 {
		t.Fatalf("prefixed histograms %v", p.Histograms)
	}
	if len(p.Counters) != 1 || len(s.Counters) != 1 {
		t.Fatal("prefixing must not grow or mutate the source")
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := snapshotFor(t, func(r *Registry) {
		r.Counter("decisions").Add(2)
		r.Gauge("depth").Set(1)
		h := r.Histogram("lat", nil)
		h.Observe(0.001)
		h.Observe(0.002)
	})
	b := snapshotFor(t, func(r *Registry) {
		r.Counter("decisions").Add(5)
		r.Gauge("depth").Set(4)
		r.Histogram("lat", nil).Observe(0.5)
		r.Counter("only.b").Inc()
	})
	m := MergeSnapshots(a, b)
	if m.Counters["decisions"] != 7 || m.Counters["only.b"] != 1 {
		t.Fatalf("merged counters %v", m.Counters)
	}
	if m.Gauges["depth"] != 5 {
		t.Fatalf("merged gauges %v", m.Gauges)
	}
	h := m.Histograms["lat"]
	if h.Count != 3 {
		t.Fatalf("merged histogram count %d, want 3", h.Count)
	}
	if h.Min != 0.001 || h.Max != 0.5 {
		t.Fatalf("merged histogram min/max %g/%g", h.Min, h.Max)
	}
	if got := h.Sum; got < 0.502 || got > 0.504 {
		t.Fatalf("merged histogram sum %g", got)
	}
}

func TestMergeSnapshotsMismatchedBoundsKeepsFirst(t *testing.T) {
	a := snapshotFor(t, func(r *Registry) {
		r.Histogram("lat", []float64{1, 2}).Observe(0.5)
	})
	b := snapshotFor(t, func(r *Registry) {
		r.Histogram("lat", []float64{10, 20, 30}).Observe(15)
	})
	m := MergeSnapshots(a, b)
	if h := m.Histograms["lat"]; h.Count != 1 || len(h.Bounds) != 2 {
		t.Fatalf("mismatched merge %+v, want first snapshot kept", h)
	}
}

func TestPromEscape(t *testing.T) {
	got := promEscape("a\"b\\c\nd")
	want := `a\"b\\c\nd`
	if got != want {
		t.Fatalf("promEscape = %q, want %q", got, want)
	}
}

func TestWritePrometheusGrouped(t *testing.T) {
	lab := snapshotFor(t, func(r *Registry) {
		r.Counter("serve.completed.total").Add(2)
		r.Histogram("serve.latency", []float64{1}).Observe(0.5)
	})
	home := snapshotFor(t, func(r *Registry) {
		r.Counter("serve.completed.total").Add(9)
		r.Gauge("serve.queue.depth").Set(3)
	})
	var b strings.Builder
	err := WritePrometheusGrouped(&b, "tenant", map[string]Snapshot{"lab": lab, "home": home})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# TYPE serve_completed_total counter") != 1 {
		t.Fatalf("TYPE header must appear exactly once:\n%s", out)
	}
	for _, want := range []string{
		`serve_completed_total{tenant="lab"} 2`,
		`serve_completed_total{tenant="home"} 9`,
		`serve_queue_depth{tenant="home"} 3`,
		`serve_latency_bucket{tenant="lab",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("grouped exposition missing %q:\n%s", want, out)
		}
	}
	// Samples for one metric must directly follow its TYPE header.
	idx := strings.Index(out, "# TYPE serve_completed_total counter")
	rest := out[idx:]
	lines := strings.Split(rest, "\n")
	if !strings.HasPrefix(lines[1], `serve_completed_total{tenant="home"}`) ||
		!strings.HasPrefix(lines[2], `serve_completed_total{tenant="lab"}`) {
		t.Fatalf("samples not grouped under header:\n%s", rest)
	}
}
