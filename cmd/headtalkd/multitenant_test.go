package main

// Tests for the multi-tenant daemon surface: the -tenants spec, tenant
// routing on NDJSON requests, protocol versioning, per-tenant controls
// and the tenant-labeled debug endpoints.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testMultiDaemon(t *testing.T, mode string) *daemon {
	t.Helper()
	d, err := newDaemon(daemonOptions{
		Workers:      2,
		QueueSize:    16,
		Mode:         mode,
		Tenants:      []tenantSpec{{ID: "lab", Device: "D1", Room: "lab"}, {ID: "home", Device: "D3", Room: "home"}},
		MetricsEvery: time.Hour,
		Enroll:       false,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func TestParseTenantSpecs(t *testing.T) {
	specs, err := parseTenantSpecs("lab:D1@lab, home:D3@home ,plain")
	if err != nil {
		t.Fatal(err)
	}
	want := []tenantSpec{{"lab", "D1", "lab"}, {"home", "D3", "home"}, {"plain", "", ""}}
	if len(specs) != len(want) {
		t.Fatalf("specs %+v", specs)
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Fatalf("spec[%d] = %+v, want %+v", i, specs[i], want[i])
		}
	}
	if got, err := parseTenantSpecs(""); err != nil || got != nil {
		t.Fatalf("empty flag = %+v, %v", got, err)
	}
	for _, bad := range []string{"a,a", ":D1", "x:D9", "x:D1@attic"} {
		if _, err := parseTenantSpecs(bad); err == nil {
			t.Fatalf("spec %q should fail", bad)
		}
	}
}

func TestTenantRoutingAndEcho(t *testing.T) {
	d := testMultiDaemon(t, "normal")
	resps := runStream(t, d,
		`{"id":"1","tenant":"lab","condition":{}}`+"\n"+
			`{"id":"2","tenant":"home","condition":{}}`+"\n"+
			`{"id":"3","condition":{}}`+"\n"+ // no tenant: default (first spec)
			`{"id":"4","tenant":"ghost","condition":{}}`+"\n")
	m := byID(resps)
	if r := m["1"]; r.Type != "decision" || r.Tenant != "lab" || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("lab response %+v", r)
	}
	if r := m["2"]; r.Type != "decision" || r.Tenant != "home" {
		t.Fatalf("home response %+v", r)
	}
	if r := m["3"]; r.Type != "decision" || r.Tenant != "lab" {
		t.Fatalf("default-tenant response %+v, want routed to first spec", r)
	}
	if r := m["4"]; r.Type != "error" || r.ErrorKind != "unknown_tenant" {
		t.Fatalf("unknown-tenant response %+v", r)
	}
}

func TestProtocolVersionGate(t *testing.T) {
	d := testDaemon(t, "normal")
	resps := runStream(t, d,
		`{"v":1,"id":"ok","condition":{}}`+"\n"+
			`{"v":2,"id":"ok2","condition":{}}`+"\n"+
			`{"v":3,"id":"ok3","condition":{}}`+"\n"+
			`{"v":4,"id":"ok4","condition":{}}`+"\n"+
			`{"v":5,"id":"ok5","condition":{}}`+"\n"+
			`{"v":6,"id":"future","condition":{}}`+"\n"+
			`{"v":0,"id":"zero","health":true}`+"\n")
	m := byID(resps)
	for _, id := range []string{"ok", "ok2", "ok3", "ok4", "ok5"} {
		if r := m[id]; r.Type != "decision" || r.Accepted == nil || !*r.Accepted {
			t.Fatalf("%s response %+v", id, r)
		}
	}
	for _, id := range []string{"future", "zero"} {
		r := m[id]
		if r.Type != "error" || r.ErrorKind != "unsupported_version" {
			t.Fatalf("%s response %+v, want unsupported_version error", id, r)
		}
		if !strings.Contains(r.Error, "supported: 1..5") {
			t.Fatalf("%s error message %q should name the supported versions", id, r.Error)
		}
	}
}

// TestPerTenantModeIsolation: a mode control on one tenant must not
// change another tenant's decisions.
func TestPerTenantModeIsolation(t *testing.T) {
	d := testMultiDaemon(t, "normal")
	resps := runStream(t, d,
		`{"id":"m","tenant":"lab","mode":"mute"}`+"\n"+
			`{"id":"l","tenant":"lab","condition":{}}`+"\n"+
			`{"id":"h","tenant":"home","condition":{}}`+"\n")
	m := byID(resps)
	if r := m["m"]; r.Type != "ok" || r.Mode != "mute" || r.Tenant != "lab" {
		t.Fatalf("mode control response %+v", r)
	}
	if r := m["l"]; r.Accepted == nil || *r.Accepted || r.ReasonSlug != "muted" {
		t.Fatalf("muted tenant decision %+v", r)
	}
	if r := m["h"]; r.Accepted == nil || !*r.Accepted {
		t.Fatalf("unmuted tenant decision %+v — lab's mute leaked into home", r)
	}
}

// TestPerTenantHealthAndMetricsLine: health controls answer for the
// named tenant, and the stream's metrics summary carries tenant.<id>.
// prefixes in multi-tenant mode.
func TestPerTenantHealthAndMetricsLine(t *testing.T) {
	d := testMultiDaemon(t, "normal")
	resps := runStream(t, d,
		`{"id":"1","tenant":"lab","condition":{}}`+"\n"+
			`{"id":"2","tenant":"lab","condition":{}}`+"\n"+
			`{"id":"3","tenant":"home","condition":{}}`+"\n"+
			`{"id":"hh","tenant":"home","health":true}`+"\n")
	m := byID(resps)
	r := m["hh"]
	if r.Type != "health" || r.Health == nil || r.Health.Tenant != "home" {
		t.Fatalf("health response %+v", r)
	}
	// Decision responses are asynchronous, so Completed may still lag
	// here; exact counts are asserted on the final metrics line below.
	if !r.Health.Healthy || r.Health.Submitted != 1 {
		t.Fatalf("home health %+v, want healthy with 1 submitted", r.Health)
	}
	last := resps[len(resps)-1]
	if last.Type != "metrics" {
		t.Fatalf("last line type %q, want metrics", last.Type)
	}
	if last.Counters["tenant.lab.serve.completed.total"] != 2 ||
		last.Counters["tenant.home.serve.completed.total"] != 1 {
		t.Fatalf("multi-tenant metrics counters %v", last.Counters)
	}
	if _, flat := last.Counters["serve.completed.total"]; flat {
		t.Fatalf("multi-tenant metrics line leaked flat counter names: %v", last.Counters)
	}
}

// TestMultiTenantDebugMux: /metrics grows a tenant label, /debug/traces
// honors ?tenant=, and /healthz aggregates every tenant.
func TestMultiTenantDebugMux(t *testing.T) {
	d := testMultiDaemon(t, "normal")
	runStream(t, d,
		`{"id":"on","tenant":"home","trace":true}`+"\n"+
			`{"id":"1","tenant":"home","condition":{}}`+"\n"+
			`{"id":"2","tenant":"lab","condition":{}}`+"\n")
	srv := httptest.NewServer(d.debugMux())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`serve_completed_total{tenant="lab"} 1`,
		`serve_completed_total{tenant="home"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Count(body, "# TYPE serve_completed_total counter") != 1 {
		t.Fatalf("/metrics repeats the TYPE header:\n%s", body)
	}

	var dump struct {
		Enabled bool              `json:"enabled"`
		Traces  []json.RawMessage `json:"traces"`
	}
	code, body = get("/debug/traces?tenant=home")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces?tenant=home status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if !dump.Enabled || len(dump.Traces) != 1 {
		t.Fatalf("home trace dump %s", body)
	}
	code, body = get("/debug/traces?tenant=lab")
	if code != http.StatusOK {
		t.Fatalf("/debug/traces?tenant=lab status %d", code)
	}
	dump.Traces = nil
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Enabled || len(dump.Traces) != 0 {
		t.Fatalf("lab trace dump %s — home's tracing toggle leaked", body)
	}
	if code, _ = get("/debug/traces?tenant=ghost"); code != http.StatusNotFound {
		t.Fatalf("/debug/traces?tenant=ghost status %d, want 404", code)
	}

	code, body = get("/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"healthy":true`) {
		t.Fatalf("/healthz status %d body %s", code, body)
	}
	for _, want := range []string{`"lab"`, `"home"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/healthz missing tenant %s: %s", want, body)
		}
	}

	// Trip one tenant's breaker: the aggregate probe must degrade.
	tn, err := d.tenant("home")
	if err != nil {
		t.Fatal(err)
	}
	tn.Engine().TripBreaker()
	if code, body = get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with open breaker status %d body %s", code, body)
	}
}

// TestRestoreKeepsTenantProfile: a tenant restored under a new id
// keeps the device and room its envelope records, so its own snapshot
// carries them on. Decisions and snapshots of the other tenant run
// while the restore records the profile (run it under -race).
func TestRestoreKeepsTenantProfile(t *testing.T) {
	d, err := newDaemon(daemonOptions{
		Workers:      2,
		QueueSize:    16,
		Mode:         "normal",
		Tenants:      []tenantSpec{{ID: "a", Device: "D1", Room: "lab"}},
		MetricsEvery: time.Hour,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	r := byID(runStream(t, d, `{"v":3,"id":"snap","tenant":"a","snapshot":true}`+"\n"))["snap"]
	if r.Type != "snapshot" || r.Envelope == nil {
		t.Fatalf("snapshot of a = %+v", r)
	}
	env := *r.Envelope
	env.TenantID = "b"

	done := make(chan []response)
	go func() {
		done <- runStream(t, d,
			`{"v":3,"id":"s1","tenant":"a","snapshot":true}`+"\n"+
				`{"v":3,"id":"d1","tenant":"a","condition":{}}`+"\n"+
				`{"v":4,"id":"f1","tenant":"a","arrays":[{"condition":{}}]}`+"\n")
	}()
	restored := byID(runStream(t, d, mustJSON(t, request{V: v(3), ID: "restore", Restore: &env})+"\n"))
	if r := restored["restore"]; r.Type != "ok" || r.Tenant != "b" {
		t.Fatalf("restore as b = %+v", r)
	}
	for _, r := range <-done {
		if r.Type == "error" {
			t.Fatalf("request %s on a during the restore = %+v", r.ID, r)
		}
	}

	r = byID(runStream(t, d, `{"v":3,"id":"snap","tenant":"b","snapshot":true}`+"\n"))["snap"]
	if r.Type != "snapshot" || r.Envelope == nil {
		t.Fatalf("snapshot of b = %+v", r)
	}
	device, room, err := r.Envelope.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if device != "D1" || room != "lab" {
		t.Fatalf("restored tenant's envelope records device %q, room %q; want D1, lab", device, room)
	}
}
