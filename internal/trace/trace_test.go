package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// tick is a controllable clock for deterministic span math.
type tick struct{ now time.Time }

func (c *tick) Now() time.Time          { return c.now }
func (c *tick) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newTick() *tick                    { return &tick{now: time.Unix(1000, 0)} }
func rec(c *tick, id string) *Recorder  { return NewRecorderClock(id, c.Now) }
func ms(n int) time.Duration            { return time.Duration(n) * time.Millisecond }
func span(t *testing.T, tr *Trace, s Stage) time.Duration {
	t.Helper()
	if !tr.has[s] {
		t.Fatalf("stage %s not recorded", s)
	}
	return tr.durs[s]
}

func TestRecorderSpansAndDecideRemainder(t *testing.T) {
	c := newTick()
	r := rec(c, "t-1")

	st := r.Begin()
	c.Advance(ms(2))
	r.End(StageValidate, st)

	st = r.Begin()
	c.Advance(ms(5))
	r.End(StagePreprocess, st)

	r.Observe(StageLiveness, ms(40))
	c.Advance(ms(40)) // the gate itself took wall time too
	r.Observe(StageOrientation, ms(130))
	c.Advance(ms(130))

	c.Advance(ms(3)) // unattributed bookkeeping tail
	r.SetOutcome("headtalk", true, "accepted")
	tr := r.Finish()

	if tr.Total != ms(180) {
		t.Fatalf("total = %v, want 180ms", tr.Total)
	}
	if got := span(t, tr, StageValidate); got != ms(2) {
		t.Fatalf("validate = %v", got)
	}
	if got := span(t, tr, StageDecide); got != ms(3) {
		t.Fatalf("decide remainder = %v, want 3ms", got)
	}
	// The invariant the §IV-B15 table depends on: spans sum to total.
	var sum time.Duration
	for _, sp := range tr.Spans() {
		sum += sp.Duration
	}
	if sum != tr.Total {
		t.Fatalf("spans sum %v != total %v", sum, tr.Total)
	}
	if !tr.Accepted || tr.Reason != "accepted" || tr.Mode != "headtalk" {
		t.Fatalf("outcome not carried: %+v", tr)
	}
	// Finish is idempotent: a second call must not re-total.
	c.Advance(time.Hour)
	if tr2 := r.Finish(); tr2.Total != ms(180) {
		t.Fatalf("second Finish changed total: %v", tr2.Total)
	}
}

func TestSpansOrderedAndAccumulating(t *testing.T) {
	c := newTick()
	r := rec(c, "t-2")
	r.Observe(StageOrientation, ms(10))
	r.Observe(StageValidate, ms(1))
	r.Observe(StageValidate, ms(2)) // repeated stage accumulates
	tr := r.Finish()
	spans := tr.Spans()
	if len(spans) < 2 || spans[0].Stage != StageValidate || spans[1].Stage != StageOrientation {
		t.Fatalf("spans not in pipeline order: %+v", spans)
	}
	if spans[0].Duration != ms(3) {
		t.Fatalf("validate accumulated %v, want 3ms", spans[0].Duration)
	}
}

// TestNilRecorderIsFreeNoop is the tracing-off guarantee: every
// Recorder method on nil, and the context round-trip with no recorder,
// must allocate nothing (the PR-3 zero-alloc hot paths call these
// unconditionally).
func TestNilRecorderIsFreeNoop(t *testing.T) {
	var r *Recorder
	ctx := context.Background()
	if n := testing.AllocsPerRun(200, func() {
		r2 := FromContext(ctx)
		st := r2.Begin()
		r2.End(StageValidate, st)
		r2.Observe(StageLiveness, ms(1))
		r2.SetPlan(nil, 0)
		r2.SetGates(0, false, 0, false)
		r2.SetOutcome("", false, "")
		if r2.Finish() != nil {
			t.Fatal("nil recorder finished to a trace")
		}
	}); n != 0 {
		t.Fatalf("nil-recorder path allocates %v per run, want 0", n)
	}
	if got := r.Begin(); !got.IsZero() {
		t.Fatal("nil Begin read the clock")
	}
}

// TestActiveSpanRecordingZeroAlloc pins that recording spans into an
// active trace writes fixed slots only.
func TestActiveSpanRecordingZeroAlloc(t *testing.T) {
	r := NewRecorder("t-3")
	if n := testing.AllocsPerRun(200, func() {
		st := r.Begin()
		r.End(StagePreprocess, st)
		r.Observe(StageLiveness, ms(1))
		r.SetGates(0.5, true, 1, true)
		r.SetOutcome("headtalk", true, "accepted")
	}); n != 0 {
		t.Fatalf("active span recording allocates %v per run, want 0", n)
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder("t-4")
	ctx := NewContext(context.Background(), r)
	if got := FromContext(ctx); got != r {
		t.Fatal("recorder lost in context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a recorder")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil-safety is the contract
		t.Fatal("nil context returned a recorder")
	}
	// A nil recorder must not taint the context.
	if got := NewContext(ctx, nil); got != ctx {
		t.Fatal("NewContext(nil) rewrapped the context")
	}
}

func TestStoreRingsAndSlowRetention(t *testing.T) {
	s := NewStore(4, ms(100))
	if s.Enabled() {
		t.Fatal("store starts enabled")
	}
	s.SetEnabled(true)
	if !s.Enabled() {
		t.Fatal("SetEnabled(true) did not stick")
	}

	add := func(id string, total time.Duration) {
		c := newTick()
		r := rec(c, id)
		c.Advance(total)
		s.Add(r.Finish())
	}
	add("slow-1", ms(150)) // above threshold: retained in both rings
	for i := 0; i < 6; i++ {
		add("fast", ms(1))
	}
	recent := s.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent holds %d, want capacity 4", len(recent))
	}
	for _, tr := range recent {
		if tr.ID == "slow-1" {
			t.Fatal("slow trace should have been evicted from the recent ring by now")
		}
	}
	slow := s.Slow(0)
	if len(slow) != 1 || slow[0].ID != "slow-1" {
		t.Fatalf("slow ring %+v, want just slow-1", slow)
	}
	dropped, slowDropped := s.Dropped()
	if dropped != 3 || slowDropped != 0 {
		t.Fatalf("dropped = %d/%d, want 3/0", dropped, slowDropped)
	}
	// Newest first, bounded by max.
	if got := s.Recent(2); len(got) != 2 || got[0].ID != "fast" {
		t.Fatalf("Recent(2) = %+v", got)
	}
	// A negative threshold disables slow retention.
	s = NewStore(4, -1)
	add("slow-2", ms(500))
	if got := s.Slow(0); len(got) != 0 {
		t.Fatalf("slow ring admitted while disabled: %+v", got)
	}
}

func TestStoreNewRecorderIDs(t *testing.T) {
	s := NewStore(0, 0)
	a, b := s.NewRecorder(), s.NewRecorder()
	if a.t.ID == "" || a.t.ID == b.t.ID {
		t.Fatalf("ids not unique: %q %q", a.t.ID, b.t.ID)
	}
	if s.slowThr != DefaultSlowThreshold {
		t.Fatalf("default slow threshold = %v", s.slowThr)
	}
	// Nil store: all no-ops, nil recorder.
	var nilStore *Store
	if nilStore.NewRecorder() != nil || nilStore.Enabled() {
		t.Fatal("nil store misbehaved")
	}
	nilStore.Add(nil)
	nilStore.SetEnabled(true)
	if nilStore.Recent(1) != nil || nilStore.Slow(1) != nil {
		t.Fatal("nil store returned traces")
	}
}

func TestWriteTable(t *testing.T) {
	c := newTick()
	r := rec(c, "t-9")
	r.Observe(StageValidate, ms(1))
	r.Observe(StageLiveness, ms(42))
	r.Observe(StageOrientation, ms(136))
	c.Advance(ms(180))
	r.SetOutcome("headtalk", false, "not_facing")
	tr := r.Finish()

	var b strings.Builder
	if err := tr.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"validate", "liveness", "orientation", "decide", "total", "100.0%", "t-9", "not_facing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTraceJSON(t *testing.T) {
	c := newTick()
	r := rec(c, "t-7")
	r.Observe(StageOrientation, ms(10))
	r.SetGates(0.9, true, -0.4, true)
	r.SetPlan([]int{0, 2, 3, 5}, 1)
	c.Advance(ms(12))
	r.SetOutcome("headtalk", false, "not_facing")
	data, err := json.Marshal(r.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		ID           string  `json:"id"`
		TotalUS      int64   `json:"total_us"`
		Reason       string  `json:"reason"`
		LiveScore    float64 `json:"live_score"`
		PlanChannels []int   `json:"plan_channels"`
		Spans        []struct {
			Stage string `json:"stage"`
			DurUS int64  `json:"dur_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	if w.ID != "t-7" || w.TotalUS != 12000 || w.Reason != "not_facing" || w.LiveScore != 0.9 {
		t.Fatalf("wire trace %+v from %s", w, data)
	}
	if len(w.PlanChannels) != 4 || len(w.Spans) != 2 || w.Spans[0].Stage != "orientation" {
		t.Fatalf("wire spans %+v", w)
	}
}
