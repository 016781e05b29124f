package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"headtalk/internal/audio"
)

// testDaemon builds a daemon with no gate training (normal mode: fast,
// always accepts) unless mode overrides.
func testDaemon(t *testing.T, mode string) *daemon {
	t.Helper()
	d, err := newDaemon(daemonOptions{
		Workers:      2,
		QueueSize:    16,
		Mode:         mode,
		MetricsEvery: time.Hour, // only the final summary fires in tests
		Enroll:       false,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// runStream round-trips NDJSON request lines through ServeStream and
// decodes every response line.
func runStream(t *testing.T, d *daemon, input string) []response {
	t.Helper()
	var out bytes.Buffer
	if err := d.ServeStream(strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var resps []response
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		var r response
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		resps = append(resps, r)
	}
	return resps
}

// byID indexes decision/error/ok responses (metrics lines have none).
func byID(resps []response) map[string]response {
	m := make(map[string]response)
	for _, r := range resps {
		if r.ID != "" {
			m[r.ID] = r
		}
	}
	return m
}

func TestRoundTripConditionRequest(t *testing.T) {
	d := testDaemon(t, "normal")
	resps := runStream(t, d,
		`{"id":"a","condition":{"AngleDeg":0}}`+"\n"+
			`{"id":"b","condition":{"AngleDeg":180,"Replay":"Smart TV"}}`+"\n")
	m := byID(resps)
	for _, id := range []string{"a", "b"} {
		r, ok := m[id]
		if !ok {
			t.Fatalf("no response for %q: %+v", id, resps)
		}
		if r.Type != "decision" || r.Accepted == nil || !*r.Accepted || r.ReasonSlug != "normal_mode" {
			t.Fatalf("response %q = %+v", id, r)
		}
	}
	// The stream ends with a metrics summary covering both decisions.
	last := resps[len(resps)-1]
	if last.Type != "metrics" {
		t.Fatalf("last line type %q, want metrics", last.Type)
	}
	if last.Counters["serve.completed.total"] != 2 || last.Counters["headtalk.decisions.total"] != 2 {
		t.Fatalf("metrics counters %v", last.Counters)
	}
	if last.Latencies["serve.decision.latency"].Count != 2 {
		t.Fatalf("latency summary %+v", last.Latencies)
	}
}

func TestRoundTripWAVRequest(t *testing.T) {
	d := testDaemon(t, "normal")
	// Write a short 2-channel noise WAV to disk.
	rng := rand.New(rand.NewPCG(3, 9))
	rec := audio.NewRecording(48000, 2, 4800)
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = 0.2 * rng.NormFloat64()
		}
	}
	path := filepath.Join(t.TempDir(), "wake.wav")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := audio.WriteWAV(f, rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reqs, _ := json.Marshal(request{ID: "w", WAV: path})
	m := byID(runStream(t, d, string(reqs)+"\n"))
	r := m["w"]
	if r.Type != "decision" || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("wav response %+v", r)
	}
}

func TestModeControlAndRejection(t *testing.T) {
	d := testDaemon(t, "normal")
	resps := runStream(t, d,
		`{"id":"1","condition":{}}`+"\n"+
			`{"id":"m","mode":"mute"}`+"\n"+
			`{"id":"2","condition":{}}`+"\n")
	m := byID(resps)
	if m["m"].Type != "ok" || m["m"].Mode != "mute" {
		t.Fatalf("mode control response %+v", m["m"])
	}
	if r := m["2"]; r.Accepted == nil || *r.Accepted || r.ReasonSlug != "muted" {
		t.Fatalf("post-mute decision %+v", r)
	}
}

func TestBadRequestLines(t *testing.T) {
	d := testDaemon(t, "normal")
	resps := runStream(t, d,
		"{not json}\n"+
			`{"id":"x"}`+"\n"+
			`{"id":"y","mode":"sideways"}`+"\n"+
			`{"id":"z","wav":"/nonexistent.wav"}`+"\n")
	errors := 0
	for _, r := range resps {
		if r.Type == "error" {
			errors++
		}
	}
	if errors != 4 {
		t.Fatalf("%d error responses, want 4: %+v", errors, resps)
	}
}

// TestErrorKindsOnBadLines pins the error_kind classification for the
// two satellite bug classes — malformed NDJSON and unreadable WAV
// paths — plus the other structured request failures.
func TestErrorKindsOnBadLines(t *testing.T) {
	d := testDaemon(t, "normal")
	resps := runStream(t, d,
		"{not json}\n"+
			`{"id":"x"}`+"\n"+
			`{"id":"y","mode":"sideways"}`+"\n"+
			`{"id":"z","wav":"/nonexistent.wav"}`+"\n")
	kinds := map[string]string{}
	for _, r := range resps {
		if r.Type == "error" {
			kinds[r.ID] = r.ErrorKind
			if r.Error == "" {
				t.Fatalf("error line without message: %+v", r)
			}
		}
	}
	want := map[string]string{
		"":  "parse",   // malformed NDJSON has no id to echo
		"x": "request", // neither wav nor condition
		"y": "mode",
		"z": "wav",
	}
	for id, kind := range want {
		if kinds[id] != kind {
			t.Fatalf("error_kind[%q] = %q, want %q (all: %v)", id, kinds[id], kind, kinds)
		}
	}
}

// TestBadInputWAVFailsClosed runs a readable but malformed capture
// (2 ms — far below the input-hardening minimum) through the full
// daemon path: the decision must surface as a typed bad_input error
// line, never an accept.
func TestBadInputWAVFailsClosed(t *testing.T) {
	d := testDaemon(t, "normal")
	m := byID(runStream(t, d, `{"id":"s","wav":"`+truncatedWAV(t)+`"}`+"\n"))
	r := m["s"]
	if r.Type != "error" || r.ErrorKind != "bad_input" {
		t.Fatalf("truncated-wav response %+v, want bad_input error", r)
	}
	if r.ReasonSlug != "bad_input" {
		t.Fatalf("reason_slug = %q, want bad_input (fail-closed reject)", r.ReasonSlug)
	}
	if r.Accepted != nil && *r.Accepted {
		t.Fatal("malformed capture was accepted")
	}
}

// truncatedWAV writes a 2-channel WAV of 100 noise samples (2 ms, far
// below the input-hardening minimum) and returns its path.
func truncatedWAV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 9))
	rec := audio.NewRecording(48000, 2, 100)
	for c := range rec.Channels {
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = 0.2 * rng.NormFloat64()
		}
	}
	path := filepath.Join(t.TempDir(), "truncated.wav")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := audio.WriteWAV(f, rec); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHealthLine exercises the {"health":true} control request.
func TestHealthLine(t *testing.T) {
	d := testDaemon(t, "headtalk")
	resps := runStream(t, d,
		`{"id":"d1","condition":{}}`+"\n"+
			`{"id":"h","health":true}`+"\n")
	m := byID(resps)
	r := m["h"]
	if r.Type != "health" || r.Health == nil {
		t.Fatalf("health response %+v", r)
	}
	h := r.Health
	if h.State != "running" || !h.Healthy || h.Breaker != "closed" {
		t.Fatalf("health body %+v, want running/healthy/closed", h)
	}
	if h.Mode != "headtalk" || h.Workers != 2 || h.QueueCapacity != 16 {
		t.Fatalf("health body %+v", h)
	}
}

func TestHeadTalkModeWithoutModelsRejects(t *testing.T) {
	d := testDaemon(t, "headtalk")
	m := byID(runStream(t, d, `{"id":"h","condition":{}}`+"\n"))
	r := m["h"]
	if r.Type != "decision" || r.Accepted == nil || *r.Accepted || r.ReasonSlug != "no_orientation" {
		t.Fatalf("headtalk-without-models response %+v", r)
	}
}

// TestServeTCP exercises the listener path end to end over a real
// socket.
func TestServeTCP(t *testing.T) {
	d := testDaemon(t, "normal")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.ServeListener(ln)
	defer ln.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"id":"tcp-1","condition":{}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var r response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.Type != "decision" || r.ID != "tcp-1" || r.Accepted == nil || !*r.Accepted {
		t.Fatalf("tcp response %+v", r)
	}
}
