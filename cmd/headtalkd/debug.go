package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"headtalk/internal/metrics"
	"headtalk/internal/trace"
)

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
