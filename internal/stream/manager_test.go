package stream

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/metrics"
	"headtalk/internal/speech"
	"headtalk/internal/va"
)

// fakeClock is a mutable test clock safe for concurrent use.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testSpotter(t testing.TB) *va.Spotter {
	t.Helper()
	s, err := va.NewSpotter(speech.WordComputer, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wakeFeed synthesizes the wake word at fs with leading/trailing
// silence and replicates it across channels.
func wakeFeed(t testing.TB, fs float64, channels int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 0x5b07734))
	buf := speech.Synthesize(speech.WordComputer, speech.RandomVoice(rng), fs, rng)
	pad := int(0.2 * fs)
	mono := make([]float64, 0, 2*pad+len(buf.Samples))
	mono = append(mono, make([]float64, pad)...)
	mono = append(mono, buf.Samples...)
	mono = append(mono, make([]float64, pad)...)
	feed := make([][]float64, channels)
	for c := range feed {
		feed[c] = mono
	}
	return feed
}

// pushChunks slices feed into chunk-sample pushes and returns every
// result in order.
func pushChunks(t testing.TB, m *Manager, id string, feed [][]float64, chunk int) []PushResult {
	t.Helper()
	var out []PushResult
	scratch := make([][]float64, len(feed))
	for start := 0; start < len(feed[0]); start += chunk {
		end := start + chunk
		if end > len(feed[0]) {
			end = len(feed[0])
		}
		for c := range feed {
			scratch[c] = feed[c][start:end]
		}
		res, err := m.Push(context.Background(), id, scratch)
		if err != nil {
			t.Fatalf("push at sample %d: %v", start, err)
		}
		out = append(out, res)
	}
	return out
}

func counter(t testing.TB, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	return reg.Counter(name).Value()
}

// TestStreamSpotsWakeWordAndDecides is the end-to-end acceptance path:
// a chunked wake-word feed must reach a decision without the caller
// ever buffering the full utterance, and the decision must run on a
// candidate window snapshot (not the whole feed).
func TestStreamSpotsWakeWordAndDecides(t *testing.T) {
	reg := metrics.NewRegistry()
	var decideCalls int
	var gotSamples int
	var gotSpans SpanDurations
	m, err := NewManager(Config{
		SampleRate:   48000,
		Channels:     2,
		Spotter:      testSpotter(t),
		JanitorEvery: -1,
		Metrics:      reg,
		Decide: func(ctx context.Context, rec *audio.Recording, spans SpanDurations) (core.Decision, error) {
			decideCalls++
			gotSamples = rec.Len()
			gotSpans = spans
			return core.Decision{Accepted: true, Reason: core.ReasonAccepted}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	feed := wakeFeed(t, 48000, 2)
	const chunk = 480 // 10 ms pushes
	results := pushChunks(t, m, "alice", feed, chunk)

	var decided *PushResult
	best := -1.0
	for i := range results {
		if s := results[i].SpotScore; s > best && results[i].Status != StatusBuffered {
			best = s
		}
		if results[i].Status == StatusDecided && decided == nil {
			decided = &results[i]
		}
	}
	if decided == nil {
		t.Fatalf("no push decided; best score seen %.3f", best)
	}
	if decided.Decision == nil || !decided.Decision.Accepted {
		t.Fatalf("decided push carries decision %+v", decided.Decision)
	}
	if decideCalls != 1 {
		t.Fatalf("decision pipeline ran %d times, want 1", decideCalls)
	}
	if gotSamples <= 0 || gotSamples > m.windowSamples {
		t.Fatalf("candidate snapshot has %d samples, want 1..%d", gotSamples, m.windowSamples)
	}
	if gotSamples >= len(feed[0]) {
		t.Fatalf("snapshot (%d samples) is as large as the whole feed (%d): streaming buffered the full utterance", gotSamples, len(feed[0]))
	}
	if gotSpans.Ingest < 0 || gotSpans.Spot < 0 {
		t.Fatalf("negative span durations: %+v", gotSpans)
	}
	if got := counter(t, reg, "stream.candidates"); got != 1 {
		t.Fatalf("stream.candidates=%d, want 1", got)
	}
	if got := counter(t, reg, "stream.decisions"); got != 1 {
		t.Fatalf("stream.decisions=%d, want 1", got)
	}
	if got := counter(t, reg, "stream.push.total"); got != uint64(len(results)) {
		t.Fatalf("stream.push.total=%d, want %d", got, len(results))
	}
}

// TestStreamSilenceExitsBeforeSpotter: sub-floor chunks past the
// hangover must exit at the energy gate — no fingerprinting, no
// spotting, no decision, and the matching exit counter increments.
func TestStreamSilenceExitsBeforeSpotter(t *testing.T) {
	reg := metrics.NewRegistry()
	decided := false
	m, err := NewManager(Config{
		Channels:     2,
		Spotter:      testSpotter(t),
		JanitorEvery: -1,
		Metrics:      reg,
		Decide: func(context.Context, *audio.Recording, SpanDurations) (core.Decision, error) {
			decided = true
			return core.Decision{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	silent := [][]float64{make([]float64, 480), make([]float64, 480)}
	// Pushes within the hangover are still processed (buffered); the
	// rest exit at the energy gate.
	hangoverPushes := m.hangoverSamples / 480
	pushes := hangoverPushes + 15
	var statuses []Status
	for i := 0; i < pushes; i++ {
		res, err := m.Push(context.Background(), "s", silent)
		if err != nil {
			t.Fatal(err)
		}
		statuses = append(statuses, res.Status)
	}
	wantSilent := uint64(pushes - hangoverPushes)
	if got := counter(t, reg, "stream.exit.energy"); got != wantSilent {
		t.Fatalf("stream.exit.energy=%d, want %d (statuses %v)", got, wantSilent, statuses)
	}
	if statuses[len(statuses)-1] != StatusSilent {
		t.Fatalf("last status %v, want silent", statuses[len(statuses)-1])
	}
	if decided {
		t.Fatal("silence reached the decision pipeline")
	}
	if got := counter(t, reg, "stream.exit.spotter"); got != 0 {
		t.Fatalf("silence reached the spotter gate: stream.exit.spotter=%d", got)
	}
}

// TestStreamNoiseExitsAtSpotterGate: audible non-wake audio must exit
// at the spotter gate — never reaching the decision pipeline (and so
// never running GCC over microphone pairs).
func TestStreamNoiseExitsAtSpotterGate(t *testing.T) {
	reg := metrics.NewRegistry()
	decided := false
	m, err := NewManager(Config{
		Channels:     2,
		Spotter:      testSpotter(t),
		JanitorEvery: -1,
		Metrics:      reg,
		Decide: func(context.Context, *audio.Recording, SpanDurations) (core.Decision, error) {
			decided = true
			return core.Decision{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rng := rand.New(rand.NewPCG(7, 8))
	noise := make([]float64, 48000*2) // 2 s of audible noise
	for i := range noise {
		noise[i] = rng.NormFloat64() * 0.2
	}
	feed := [][]float64{noise, noise}
	results := pushChunks(t, m, "n", feed, 480)
	if decided {
		t.Fatal("noise reached the decision pipeline")
	}
	if got := counter(t, reg, "stream.exit.spotter"); got == 0 {
		t.Fatal("no push exited at the spotter gate")
	}
	if got := counter(t, reg, "stream.candidates"); got != 0 {
		t.Fatalf("noise produced %d candidates", got)
	}
	sawNoWake := false
	for _, r := range results {
		if r.Status == StatusNoWake {
			sawNoWake = true
			if r.SpotScore >= m.cfg.Spotter.Threshold {
				t.Fatalf("no_wake push carries score %.3f ≥ threshold %.3f", r.SpotScore, m.cfg.Spotter.Threshold)
			}
		}
	}
	if !sawNoWake {
		t.Fatal("no push reported no_wake")
	}
}

// TestStreamRejectsBadFrames: shape and finiteness violations exit at
// validation, never entering the ring.
func TestStreamRejectsBadFrames(t *testing.T) {
	reg := metrics.NewRegistry()
	m, err := NewManager(Config{Channels: 2, Spotter: testSpotter(t), JanitorEvery: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bad := [][][]float64{
		{make([]float64, 100)},                      // wrong channel count
		{make([]float64, 100), make([]float64, 99)}, // ragged
		{{}, {}},             // empty
		{{1, nan()}, {1, 2}}, // NaN
		{make([]float64, 200000), make([]float64, 200000)}, // larger than the ring
	}
	for i, frame := range bad {
		res, err := m.Push(context.Background(), "b", frame)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad frame %d: err=%v, want ErrBadFrame", i, err)
		}
		if res.Status != StatusInvalid {
			t.Fatalf("bad frame %d: status %v", i, res.Status)
		}
	}
	if got := counter(t, reg, "stream.exit.validate"); got != uint64(len(bad)) {
		t.Fatalf("stream.exit.validate=%d, want %d", got, len(bad))
	}
}

func nan() float64 {
	var z float64
	return z / z
}

// TestManagerEvictionUnderLoad: sessions idle past the timeout are
// evicted; active ones survive; the gauge tracks the live count.
func TestManagerEvictionUnderLoad(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newFakeClock()
	m, err := NewManager(Config{
		Channels:       1,
		Spotter:        testSpotter(t),
		SessionTimeout: time.Minute,
		JanitorEvery:   -1,
		Metrics:        reg,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	chunk := [][]float64{make([]float64, 480)}
	ids := []string{"a", "b", "c", "d"}
	for _, id := range ids {
		if _, err := m.Push(context.Background(), id, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if int(m.ins.active.Value()) != len(ids) {
		t.Fatalf("Len=%d, want %d", int(m.ins.active.Value()), len(ids))
	}
	clk.Advance(50 * time.Second)
	// Keep "a" warm.
	if _, err := m.Push(context.Background(), "a", chunk); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second) // b,c,d now 80s idle; a only 30s
	if n := m.EvictIdle(); n != 3 {
		t.Fatalf("evicted %d, want 3", n)
	}
	if int(m.ins.active.Value()) != 1 {
		t.Fatalf("Len=%d after eviction, want 1", int(m.ins.active.Value()))
	}
	if got := reg.Gauge("stream.sessions.active").Value(); got != 1 {
		t.Fatalf("active gauge %d, want 1", got)
	}
	if got := counter(t, reg, "stream.sessions.evicted"); got != 3 {
		t.Fatalf("evicted counter %d, want 3", got)
	}
	// "a" still works without re-creation.
	created := counter(t, reg, "stream.sessions.created")
	if _, err := m.Push(context.Background(), "a", chunk); err != nil {
		t.Fatal(err)
	}
	if got := counter(t, reg, "stream.sessions.created"); got != created {
		t.Fatalf("push to surviving session created a new one (%d → %d)", created, got)
	}
}

// TestManagerSessionLimit: at capacity, creating a session first tries
// an idle sweep, then rejects with ErrSessionLimit.
func TestManagerSessionLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newFakeClock()
	m, err := NewManager(Config{
		Channels:       1,
		Spotter:        testSpotter(t),
		MaxSessions:    2,
		SessionTimeout: time.Minute,
		JanitorEvery:   -1,
		Metrics:        reg,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	chunk := [][]float64{make([]float64, 100)}
	for _, id := range []string{"a", "b"} {
		if _, err := m.Push(context.Background(), id, chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Push(context.Background(), "c", chunk); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third session: err=%v, want ErrSessionLimit", err)
	}
	if got := counter(t, reg, "stream.sessions.rejected"); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	// Existing sessions keep working at capacity.
	if _, err := m.Push(context.Background(), "a", chunk); err != nil {
		t.Fatalf("push to existing session at capacity: %v", err)
	}
	// Once a and b go idle, the capacity check itself sweeps them.
	clk.Advance(2 * time.Minute)
	if _, err := m.Push(context.Background(), "c", chunk); err != nil {
		t.Fatalf("create after idle sweep: %v", err)
	}
	if int(m.ins.active.Value()) != 1 {
		t.Fatalf("Len=%d after sweep+create, want 1", int(m.ins.active.Value()))
	}
}

// TestManagerEndAndClose covers explicit teardown.
func TestManagerEndAndClose(t *testing.T) {
	m, err := NewManager(Config{Channels: 1, Spotter: testSpotter(t), JanitorEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	chunk := [][]float64{make([]float64, 100)}
	if _, err := m.Push(context.Background(), "a", chunk); err != nil {
		t.Fatal(err)
	}
	if !m.End("a") {
		t.Fatal("End(a) reported missing")
	}
	if m.End("a") {
		t.Fatal("double End(a) reported present")
	}
	m.Close()
	m.Close() // idempotent
	if _, err := m.Push(context.Background(), "a", chunk); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: err=%v, want ErrClosed", err)
	}
}

// TestManagerConcurrentPushEvict hammers pushes, ends, and evictions
// from many goroutines — run under -race, it is the data-race canary
// for the map-lock/session-lock split.
func TestManagerConcurrentPushEvict(t *testing.T) {
	clk := newFakeClock()
	m, err := NewManager(Config{
		Channels:       1,
		Spotter:        testSpotter(t),
		MaxSessions:    8,
		SessionTimeout: time.Second,
		JanitorEvery:   -1,
		Clock:          clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var wg sync.WaitGroup
	ids := []string{"a", "b", "c", "d", "e", "f"}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			chunk := [][]float64{make([]float64, 480)}
			for i := 0; i < 200; i++ {
				_, err := m.Push(context.Background(), ids[(g+i)%len(ids)], chunk)
				// ErrSessionEnded is the documented outcome of a push
				// racing End/EvictIdle on an acquired session.
				if err != nil && !errors.Is(err, ErrSessionLimit) && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrSessionEnded) {
					t.Errorf("goroutine %d push %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			clk.Advance(30 * time.Millisecond)
			m.EvictIdle()
			m.End(ids[i%len(ids)])
		}
	}()
	wg.Wait()
	if int(m.ins.active.Value()) > 8 {
		t.Fatalf("Len=%d exceeds MaxSessions", int(m.ins.active.Value()))
	}
}

// TestChaosStalledSessionIsolation: a session stalled inside the
// decision pipeline must not block pushes on other sessions, idle
// sweeps, or manager teardown — the manager lock is never held across
// a decide.
func TestChaosStalledSessionIsolation(t *testing.T) {
	clk := newFakeClock()
	stall := make(chan struct{})
	entered := make(chan struct{})
	m, err := NewManager(Config{
		Channels:       2,
		Spotter:        testSpotter(t),
		SessionTimeout: time.Minute,
		JanitorEvery:   -1,
		Clock:          clk.Now,
		Decide: func(ctx context.Context, rec *audio.Recording, spans SpanDurations) (core.Decision, error) {
			close(entered)
			<-stall // wedge until released
			return core.Decision{Accepted: true, Reason: core.ReasonAccepted}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Background: push the wake word into "wedged" until its decide
	// stalls.
	feed := wakeFeed(t, 48000, 2)
	done := make(chan error, 1)
	go func() {
		scratch := make([][]float64, 2)
		for start := 0; start < len(feed[0]); start += 480 {
			end := start + 480
			if end > len(feed[0]) {
				end = len(feed[0])
			}
			for c := range feed {
				scratch[c] = feed[c][start:end]
			}
			if _, err := m.Push(context.Background(), "wedged", scratch); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	select {
	case <-entered:
	case err := <-done:
		t.Fatalf("feed finished without stalling in decide (err=%v)", err)
	case <-time.After(30 * time.Second):
		t.Fatal("decide never entered")
	}

	// With "wedged" stuck inside its decide (holding its session lock),
	// every other operation must still complete promptly.
	others := make(chan error, 1)
	go func() {
		chunk := [][]float64{make([]float64, 480), make([]float64, 480)}
		for i := 0; i < 50; i++ {
			if _, err := m.Push(context.Background(), "healthy", chunk); err != nil {
				others <- err
				return
			}
		}
		m.EvictIdle()
		m.End("healthy")
		others <- nil
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatalf("healthy session blocked by stalled one: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("healthy-session operations starved by the stalled session")
	}

	// The stalled session's timestamp is stale, so an idle sweep may
	// evict it — that must not deadlock either.
	clk.Advance(2 * time.Minute)
	m.EvictIdle()

	close(stall)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wedged feed after release: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged push never completed after release")
	}
}

// TestStreamSteadyPushAllocs pins the non-candidate push path — the
// overwhelmingly common case in continuous listening — at zero
// steady-state allocations, for both silent and audible chunks.
func TestStreamSteadyPushAllocs(t *testing.T) {
	m, err := NewManager(Config{Channels: 2, Spotter: testSpotter(t), JanitorEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rng := rand.New(rand.NewPCG(11, 12))
	loud := [][]float64{make([]float64, 480), make([]float64, 480)}
	for c := range loud {
		for i := range loud[c] {
			loud[c][i] = rng.NormFloat64() * 0.2
		}
	}
	silent := [][]float64{make([]float64, 480), make([]float64, 480)}
	ctx := context.Background()

	// Warm both paths: create the session, grow scratch, fill windows.
	for i := 0; i < 200; i++ {
		if _, err := m.Push(ctx, "s", loud); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() { m.Push(ctx, "s", loud) }); avg != 0 {
		t.Errorf("audible push allocates %.1f times per op, want 0", avg)
	}
	for i := 0; i < m.hangoverSamples/480+5; i++ {
		m.Push(ctx, "s", silent)
	}
	if avg := testing.AllocsPerRun(200, func() { m.Push(ctx, "s", silent) }); avg != 0 {
		t.Errorf("silent push allocates %.1f times per op, want 0", avg)
	}
}
