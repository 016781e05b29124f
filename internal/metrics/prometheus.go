package metrics

// Prometheus text exposition (text/plain; version=0.0.4) for the
// daemon's debug listener. Kept separate from WriteText: that format is
// for humans tailing a terminal, this one is for scrapers, and the two
// evolve independently.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes an instrument name into a valid Prometheus metric
// name: runes outside [a-zA-Z0-9_:] (dots, dashes, spaces) become
// underscores, and a leading digit is prefixed with one.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus clients do: shortest
// round-trippable decimal form.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format: counters and gauges as single samples, histograms
// as cumulative _bucket{le="..."} series plus _sum and _count. Metric
// names are sanitized with promName, so the registry's dotted names
// (serve.queue_wait) come out scrape-safe (serve_queue_wait).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	return WritePrometheusGrouped(w, "", map[string]Snapshot{"": s})
}

// WritePrometheusGrouped renders one snapshot per label value (e.g.
// tenant ID → snapshot) grouped by metric name, so each # TYPE header
// appears exactly once even when several tenants expose the same
// instrument — the exposition format forbids repeating a metadata line
// per metric. labelName names the distinguishing label ("tenant");
// with an empty labelName the samples carry no label, which is how
// WritePrometheus renders its one snapshot. Counters sort before
// gauges before histograms, each alphabetized, and label values sort
// within a metric, so scrape output is deterministic.
func WritePrometheusGrouped(w io.Writer, labelName string, snaps map[string]Snapshot) error {
	values := sortedKeys(snaps)
	// labels renders a sample's label set: the group label, then le for
	// a histogram bucket.
	labels := func(v, le string) string {
		var set []string
		if labelName != "" {
			set = append(set, promName(labelName)+`="`+promEscape(v)+`"`)
		}
		if le != "" {
			set = append(set, `le="`+le+`"`)
		}
		if len(set) == 0 {
			return ""
		}
		return "{" + strings.Join(set, ",") + "}"
	}
	counters, gauges, hists := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, s := range snaps {
		for k := range s.Counters {
			counters[k] = true
		}
		for k := range s.Gauges {
			gauges[k] = true
		}
		for k := range s.Histograms {
			hists[k] = true
		}
	}
	ew := &stickyWriter{w: w}
	for _, k := range sortedKeys(counters) {
		n := promName(k)
		ew.printf("# TYPE %s counter\n", n)
		for _, v := range values {
			if c, ok := snaps[v].Counters[k]; ok {
				ew.printf("%s%s %d\n", n, labels(v, ""), c)
			}
		}
	}
	for _, k := range sortedKeys(gauges) {
		n := promName(k)
		ew.printf("# TYPE %s gauge\n", n)
		for _, v := range values {
			if g, ok := snaps[v].Gauges[k]; ok {
				ew.printf("%s%s %d\n", n, labels(v, ""), g)
			}
		}
	}
	for _, k := range sortedKeys(hists) {
		n := promName(k)
		ew.printf("# TYPE %s histogram\n", n)
		for _, v := range values {
			h, ok := snaps[v].Histograms[k]
			if !ok {
				continue
			}
			// Buckets are cumulative per the exposition format; the +Inf
			// bucket and _count are the cumulative total so the series
			// stays self-consistent even if Counts raced with Count.
			var cum uint64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				ew.printf("%s_bucket%s %d\n", n, labels(v, promFloat(bound)), cum)
			}
			if len(h.Counts) > len(h.Bounds) {
				cum += h.Counts[len(h.Bounds)]
			}
			ew.printf("%s_bucket%s %d\n", n, labels(v, "+Inf"), cum)
			ls := labels(v, "")
			ew.printf("%s_sum%s %s\n%s_count%s %d\n", n, ls, promFloat(h.Sum), n, ls, cum)
		}
	}
	return ew.err
}

// stickyWriter keeps the first write error and drops every write after
// it.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) printf(format string, args ...any) {
	if s.err == nil {
		_, s.err = fmt.Fprintf(s.w, format, args...)
	}
}

// promEscape escapes a label value for the text exposition format.
func promEscape(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
