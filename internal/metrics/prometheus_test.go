package metrics

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"serve.queue_wait":   "serve_queue_wait",
		"core.accepted":      "core_accepted",
		"plain":              "plain",
		"9lives":             "_9lives",
		"dash-and space":     "dash_and_space",
		"already_good:ratio": "already_good:ratio",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.accepted").Add(7)
	r.Gauge("serve.queue_depth").Set(-3)
	h := r.Histogram("core.latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket le=0.001
	h.Observe(0.005)  // bucket le=0.01
	h.Observe(0.005)
	h.Observe(5) // +Inf bucket

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE serve_accepted counter\nserve_accepted 7\n",
		"# TYPE serve_queue_depth gauge\nserve_queue_depth -3\n",
		"# TYPE core_latency histogram\n",
		`core_latency_bucket{le="0.001"} 1`,
		`core_latency_bucket{le="0.01"} 3`, // cumulative
		`core_latency_bucket{le="0.1"} 3`,  // still cumulative
		`core_latency_bucket{le="+Inf"} 4`, // total
		"core_latency_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "core_latency_sum 5.0105") {
		t.Errorf("exposition sum wrong:\n%s", out)
	}
	// Counters sort before gauges before histograms, each alphabetized,
	// so scrape output is deterministic.
	if strings.Index(out, "serve_accepted") > strings.Index(out, "serve_queue_depth") {
		t.Error("counters should render before gauges")
	}
}

func TestWritePrometheusEmpty(t *testing.T) {
	var b strings.Builder
	if err := NewRegistry().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry rendered %q", b.String())
	}
}

// pinSnapshot is one fixed snapshot for the byte pins below: two
// counters, a negative gauge, and a histogram whose last observation
// fell past every bound (the overflow bucket).
func pinSnapshot() Snapshot {
	return Snapshot{
		Counters: map[string]uint64{"serve.accepted": 7, "core.rejected.total": 2},
		Gauges:   map[string]int64{"serve.queue_depth": -3},
		Histograms: map[string]HistogramSnapshot{
			"core.latency": {
				Count: 4, Sum: 5.0105, Min: 0.0005, Max: 5, HasData: true,
				Bounds: []float64{0.001, 0.01, 0.1},
				Counts: []uint64{1, 2, 0, 1},
			},
		},
	}
}

// TestWritePrometheusBytes pins the unlabeled scrape byte for byte.
func TestWritePrometheusBytes(t *testing.T) {
	var b strings.Builder
	if err := pinSnapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE core_rejected_total counter
core_rejected_total 2
# TYPE serve_accepted counter
serve_accepted 7
# TYPE serve_queue_depth gauge
serve_queue_depth -3
# TYPE core_latency histogram
core_latency_bucket{le="0.001"} 1
core_latency_bucket{le="0.01"} 3
core_latency_bucket{le="0.1"} 3
core_latency_bucket{le="+Inf"} 4
core_latency_sum 5.0105
core_latency_count 4
`
	if got := b.String(); got != want {
		t.Fatalf("scrape bytes changed:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritePrometheusGroupedBytes pins the per-tenant scrape byte for
// byte, including a label value that needs escaping and a tenant that
// lacks some instruments.
func TestWritePrometheusGroupedBytes(t *testing.T) {
	other := Snapshot{Counters: map[string]uint64{"serve.accepted": 1}}
	var b strings.Builder
	err := WritePrometheusGrouped(&b, "tenant", map[string]Snapshot{
		"lab":          pinSnapshot(),
		"q\"uo\\te\nd": other,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE core_rejected_total counter
core_rejected_total{tenant="lab"} 2
# TYPE serve_accepted counter
serve_accepted{tenant="lab"} 7
serve_accepted{tenant="q\"uo\\te\nd"} 1
# TYPE serve_queue_depth gauge
serve_queue_depth{tenant="lab"} -3
# TYPE core_latency histogram
core_latency_bucket{tenant="lab",le="0.001"} 1
core_latency_bucket{tenant="lab",le="0.01"} 3
core_latency_bucket{tenant="lab",le="0.1"} 3
core_latency_bucket{tenant="lab",le="+Inf"} 4
core_latency_sum{tenant="lab"} 5.0105
core_latency_count{tenant="lab"} 4
`
	if got := b.String(); got != want {
		t.Fatalf("scrape bytes changed:\n%s\nwant:\n%s", got, want)
	}
}
