package metrics

// Multi-tenant snapshot helpers. A serving pool gives every tenant its
// own Registry so one tenant's counters never mix with another's; the
// helpers here re-assemble those private registries into one view, a
// name-prefixed merge for the daemon's NDJSON metrics lines.
// WritePrometheusGrouped renders the same per-tenant snapshots for
// scrapers, with a `tenant="..."` label instead of mangled names.

// Prefixed returns a copy of the snapshot with prefix prepended to
// every instrument name. The underlying histogram bound/count slices
// are shared (snapshots are read-only views).
func (s Snapshot) Prefixed(prefix string) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[prefix+k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[prefix+k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[prefix+k] = v
	}
	return out
}

// MergeSnapshots combines snapshots into one. Counters and gauges
// sharing a name are summed; histograms sharing a name are summed
// bucket-wise when their bounds match, otherwise the first occurrence
// wins (merging histograms with different layouts has no meaningful
// answer). Callers that need collision-free merges should Prefix each
// snapshot first.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, v := range s.Histograms {
			prev, ok := out.Histograms[k]
			if !ok {
				out.Histograms[k] = v
				continue
			}
			if merged, ok := mergeHistograms(prev, v); ok {
				out.Histograms[k] = merged
			}
		}
	}
	return out
}

// mergeHistograms sums two snapshots with identical bucket layouts.
func mergeHistograms(a, b HistogramSnapshot) (HistogramSnapshot, bool) {
	if len(a.Bounds) != len(b.Bounds) || len(a.Counts) != len(b.Counts) {
		return a, false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return a, false
		}
	}
	m := HistogramSnapshot{
		Count:  a.Count + b.Count,
		Sum:    a.Sum + b.Sum,
		Bounds: a.Bounds,
		Counts: make([]uint64, len(a.Counts)),
	}
	for i := range a.Counts {
		m.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	switch {
	case a.HasData && b.HasData:
		m.HasData = true
		m.Min, m.Max = a.Min, a.Max
		if b.Min < m.Min {
			m.Min = b.Min
		}
		if b.Max > m.Max {
			m.Max = b.Max
		}
	case a.HasData:
		m.HasData, m.Min, m.Max = true, a.Min, a.Max
	case b.HasData:
		m.HasData, m.Min, m.Max = true, b.Min, b.Max
	}
	return m, true
}
