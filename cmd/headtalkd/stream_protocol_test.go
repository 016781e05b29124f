package main

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"headtalk/internal/speech"
)

func v(n int) *int { return &n }

// mustJSON marshals one request line.
func mustJSON(t *testing.T, req request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// wakeChunks synthesizes the wake word at 48 kHz with leading/trailing
// silence, replicates it across channels and slices it into 100 ms
// frames chunks.
func wakeChunks(t *testing.T, channels int) [][][]float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 0x5b07734))
	buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), 48000, rng)
	pad := make([]float64, 9600)
	mono := append(append(append([]float64(nil), pad...), buf.Samples...), pad...)
	const chunk = 4800
	var chunks [][][]float64
	for start := 0; start < len(mono); start += chunk {
		end := start + chunk
		if end > len(mono) {
			end = len(mono)
		}
		frame := make([][]float64, channels)
		for c := range frame {
			frame[c] = mono[start:end]
		}
		chunks = append(chunks, frame)
	}
	return chunks
}

// TestStreamProtocolVersionGate: frames/end_session need v>=2, unknown
// versions are rejected outright, and v2 still accepts the classic
// request shapes.
func TestStreamProtocolVersionGate(t *testing.T) {
	d := testDaemon(t, "normal")
	silent := [][]float64{make([]float64, 480), make([]float64, 480), make([]float64, 480), make([]float64, 480)}
	resps := runStream(t, d,
		mustJSON(t, request{ID: "f-nov", Frames: silent})+"\n"+
			mustJSON(t, request{V: v(1), ID: "f-v1", Frames: silent})+"\n"+
			mustJSON(t, request{V: v(1), ID: "e-v1", EndSession: true})+"\n"+
			`{"v":3,"id":"a-v3","arrays":[{"condition":{}}]}`+"\n"+
			`{"v":6,"id":"v6","condition":{}}`+"\n"+
			`{"v":4,"id":"m-v4","model_status":true}`+"\n"+
			`{"v":5,"id":"ok5","condition":{}}`+"\n"+
			`{"v":4,"id":"ok4","condition":{}}`+"\n"+
			`{"v":3,"id":"ok3","condition":{}}`+"\n"+
			`{"v":2,"id":"ok2","condition":{}}`+"\n"+
			`{"v":1,"id":"ok1","condition":{}}`+"\n")
	m := byID(resps)
	for _, id := range []string{"f-nov", "f-v1", "e-v1", "a-v3", "v6", "m-v4"} {
		r := m[id]
		if r.Type != "error" || r.ErrorKind != "unsupported_version" {
			t.Fatalf("response %q = %+v, want unsupported_version error", id, r)
		}
	}
	for _, id := range []string{"ok5", "ok4", "ok3", "ok2", "ok1"} {
		r := m[id]
		if r.Type != "decision" || r.Accepted == nil || !*r.Accepted {
			t.Fatalf("response %q = %+v, want accepted decision", id, r)
		}
	}
}

// TestStreamFramesEndToEnd drives a chunked wake-word feed through the
// NDJSON v2 protocol: most chunks exit the cascade early, exactly one
// reaches the decision pipeline, end_session tears a session down, and
// the final metrics line carries the session gauge.
func TestStreamFramesEndToEnd(t *testing.T) {
	d := testDaemon(t, "normal")
	var b strings.Builder
	chunks := wakeChunks(t, 4)
	for i, frame := range chunks {
		b.WriteString(mustJSON(t, request{V: v(2), ID: "p", Session: "kitchen", Frames: frame}))
		b.WriteByte('\n')
		_ = i
	}
	// A second, throwaway session proves end_session releases state.
	b.WriteString(mustJSON(t, request{V: v(2), ID: "s2", Session: "scratch", Frames: chunks[0]}))
	b.WriteByte('\n')
	b.WriteString(mustJSON(t, request{V: v(2), ID: "end", Session: "scratch", EndSession: true}))
	b.WriteByte('\n')

	resps := runStream(t, d, b.String())
	statuses := map[string]int{}
	var decided *response
	for i := range resps {
		r := resps[i]
		if r.Type == "error" {
			t.Fatalf("error line: %+v", r)
		}
		if r.Session == "kitchen" {
			statuses[r.Status]++
			if r.Status == "decided" && decided == nil {
				decided = &resps[i]
			}
		}
	}
	if decided == nil {
		t.Fatalf("no chunk decided; statuses %v", statuses)
	}
	if decided.Accepted == nil || !*decided.Accepted || decided.ReasonSlug != "normal_mode" {
		t.Fatalf("streamed decision %+v", decided)
	}
	if decided.SpotScore == nil || *decided.SpotScore <= 0 {
		t.Fatalf("decided line without spot score: %+v", decided)
	}
	// The candidate was attributed to a tracked speaker and the
	// attribution rode back on the decided line.
	if decided.Speaker == nil || decided.Speaker.ID == "" || decided.Speaker.Utterances < 1 {
		t.Fatalf("decided line without speaker attribution: %+v", decided)
	}
	if statuses["decided"] != 1 {
		t.Fatalf("decided %d times, want 1 (statuses %v)", statuses["decided"], statuses)
	}
	if statuses["silent"]+statuses["no_wake"]+statuses["buffered"] == 0 {
		t.Fatalf("no early exits: %v", statuses)
	}
	// end_session acknowledged.
	ended := byID(resps)["end"]
	if ended.Type != "stream" || ended.Ended == nil || !*ended.Ended {
		t.Fatalf("end_session response %+v", ended)
	}

	// The final metrics line carries the session gauge (single-tenant:
	// flat names) and the acceptance invariant: the whole feed produced
	// exactly one engine submission.
	last := resps[len(resps)-1]
	if last.Type != "metrics" {
		t.Fatalf("last line type %q, want metrics", last.Type)
	}
	if got := last.Gauges["stream.sessions.active"]; got != 1 {
		t.Fatalf("stream.sessions.active=%d, want 1 (kitchen open, scratch ended)", got)
	}
	if got := last.Counters["serve.submitted.total"]; got != 1 {
		t.Fatalf("serve.submitted.total=%d, want 1 (early exits must skip the pipeline)", got)
	}
	if got := last.Counters["stream.candidates"]; got != 1 {
		t.Fatalf("stream.candidates=%d, want 1", got)
	}
	if got := last.Counters["stream.speakers.created"]; got != 1 {
		t.Fatalf("stream.speakers.created=%d, want 1 (one candidate, one track)", got)
	}
}

// TestStreamBadFrames: a chunk with the wrong channel count is a typed
// bad_input error and the stream keeps serving.
func TestStreamBadFrames(t *testing.T) {
	d := testDaemon(t, "normal")
	ragged := [][]float64{make([]float64, 480), make([]float64, 100)}
	resps := runStream(t, d,
		mustJSON(t, request{V: v(2), ID: "bad", Session: "s", Frames: ragged})+"\n"+
			`{"id":"after","condition":{}}`+"\n")
	m := byID(resps)
	if r := m["bad"]; r.Type != "error" || r.ErrorKind != "bad_input" {
		t.Fatalf("ragged frames response %+v, want bad_input error", r)
	}
	if r := m["after"]; r.Type != "decision" || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("request after bad frames %+v, want decision", r)
	}
}

// TestStreamMultiTenantSessionGauges: each tenant's sessions are scoped
// and surface under that tenant's metric prefix in the merged summary.
func TestStreamMultiTenantSessionGauges(t *testing.T) {
	d, err := newDaemon(daemonOptions{
		Workers:      2,
		QueueSize:    16,
		Mode:         "normal",
		Tenants:      []tenantSpec{{ID: "a"}, {ID: "b"}},
		MetricsEvery: time.Hour,
		Enroll:       false,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })

	silent := [][]float64{make([]float64, 480), make([]float64, 480), make([]float64, 480), make([]float64, 480)}
	resps := runStream(t, d,
		mustJSON(t, request{V: v(2), ID: "pa", Tenant: "a", Session: "room", Frames: silent})+"\n"+
			mustJSON(t, request{V: v(2), ID: "pb", Tenant: "b", Session: "room", Frames: silent})+"\n")
	m := byID(resps)
	if r := m["pa"]; r.Type != "stream" || r.Tenant != "a" {
		t.Fatalf("tenant a push %+v", r)
	}
	if r := m["pb"]; r.Type != "stream" || r.Tenant != "b" {
		t.Fatalf("tenant b push %+v", r)
	}
	last := resps[len(resps)-1]
	if last.Type != "metrics" {
		t.Fatalf("last line type %q, want metrics", last.Type)
	}
	for _, id := range []string{"a", "b"} {
		if got := last.Gauges["tenant."+id+".stream.sessions.active"]; got != 1 {
			t.Fatalf("tenant.%s.stream.sessions.active=%d, want 1 (gauges %v)", id, got, last.Gauges)
		}
	}
}

// TestStreamDeviceTenantAcceptsCaptureSubset: a D1 tenant (a 7-element
// array) streams the same 4-microphone subset its captures and
// enrollment use, so a 4-channel push is served — both on the tenant
// the daemon built and on the same tenant restored from its snapshot.
func TestStreamDeviceTenantAcceptsCaptureSubset(t *testing.T) {
	d, err := newDaemon(daemonOptions{
		Workers:      2,
		QueueSize:    16,
		Mode:         "normal",
		Tenants:      []tenantSpec{{ID: "kitchen", Device: "D1"}},
		MetricsEvery: time.Hour,
		Enroll:       false,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })

	frames := [][]float64{make([]float64, 480), make([]float64, 480), make([]float64, 480), make([]float64, 480)}
	m := byID(runStream(t, d,
		mustJSON(t, request{V: v(2), ID: "push", Tenant: "kitchen", Session: "s", Frames: frames})+"\n"+
			`{"v":3,"id":"snap","tenant":"kitchen","snapshot":true}`+"\n"))
	if r := m["push"]; r.Type != "stream" || r.Status == "" {
		t.Fatalf("4-channel push to a D1 tenant: %+v, want a stream line", r)
	}
	r := m["snap"]
	if r.Type != "snapshot" || r.Envelope == nil {
		t.Fatalf("snapshot response %+v", r)
	}

	m = byID(runStream(t, d,
		mustJSON(t, request{V: v(3), ID: "restore", Restore: r.Envelope})+"\n"+
			mustJSON(t, request{V: v(2), ID: "push", Tenant: "kitchen", Session: "s", Frames: frames})+"\n"))
	if r := m["restore"]; r.Type != "ok" {
		t.Fatalf("restore response %+v", r)
	}
	if r := m["push"]; r.Type != "stream" || r.Status == "" {
		t.Fatalf("4-channel push to the restored D1 tenant: %+v, want a stream line", r)
	}
}
