package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/cluster"
	"headtalk/internal/core"
	"headtalk/internal/dsp"
	"headtalk/internal/features"
	"headtalk/internal/mic"
	"headtalk/internal/registry"
	"headtalk/internal/serve"
	"headtalk/internal/speech"
	"headtalk/internal/srp"
	"headtalk/internal/stream"
	"headtalk/internal/va"
)

// daemonSeed is headtalkd's default -seed; the daemon builds its wake
// spotter from it, and so does the in-process replay.
const daemonSeed = 7

// outcome is what the correctness check compares: for wake ops the
// decision, for chunk ops the push status plus the decision when one
// was made.
type outcome struct {
	Status   string `json:"status,omitempty"`
	Accepted bool   `json:"accepted"`
	Slug     string `json:"reason_slug,omitempty"`
}

func decisionOutcome(d core.Decision) outcome {
	return outcome{Accepted: d.Accepted, Slug: d.Reason.Slug()}
}

// span is one timed call in the traced replay. Spans of one request
// share Req; Parent indexes the span that caused this one (-1: root).
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
	// Allocs and Bytes are heap allocation counts over the span, for
	// the spans that measure them.
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return durMS(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// inproc runs the daemon's pipeline in this process, built from the
// same enrollment envelope the daemon restores. refSys is the
// reference: core.System.ProcessWake on the request sequence. With a
// tracer attached, every decision additionally runs through a serving
// engine (on its own System, so session state stays in step) and
// through each layer's public function, one span per call.
type inproc struct {
	refSys *core.System
	set    *registry.ModelSet
	cfg    core.Config

	tr     *tracer
	svcSys *core.System
	eng    *serve.Engine

	// Layer-call scratch, reused across decisions like a serving
	// worker's arena.
	bp       *dsp.IIRFilter
	health   mic.ArrayHealth
	preBack  []float64
	preChans [][]float64
	mono     []float64
	featWS   features.Workspace
	srpWS    srp.Workspace
	ml       []float64
	focus    [][]float64

	spotter  *va.Spotter
	pushSpan int // the stream.push span a candidate decision runs under
	// timeStream times the stream layer's calls in an untraced replay.
	timeStream bool
}

// fromEnvelope builds systems from a tenant snapshot envelope, the way
// the daemon's restore verb does.
func fromEnvelope(envelope []byte) func() (*core.System, error) {
	return func() (*core.System, error) {
		var env cluster.Envelope
		if err := json.Unmarshal(envelope, &env); err != nil {
			return nil, fmt.Errorf("enrollment envelope: %w", err)
		}
		sys, _, err := cluster.BuildSystemWithModels(&env, nil)
		return sys, err
	}
}

// newInproc builds the replay; build returns a fresh System with the
// daemon tenant's models and configuration.
func newInproc(build func() (*core.System, error), traced bool) (*inproc, error) {
	ref, err := build()
	if err != nil {
		return nil, err
	}
	ip := &inproc{refSys: ref, set: ref.ModelSet(), cfg: ref.Config()}
	ip.spotter, err = va.NewSpotter(speech.WordComputer, 4, daemonSeed)
	if err != nil {
		return nil, err
	}
	if !traced {
		return ip, nil
	}
	ip.tr = &tracer{t0: time.Now()}
	if ip.svcSys, err = build(); err != nil {
		return nil, err
	}
	if ip.eng, err = serve.NewEngine(serve.Config{System: ip.svcSys, Workers: 1}); err != nil {
		return nil, err
	}
	if err := ip.eng.Start(); err != nil {
		return nil, err
	}
	ip.bp, err = dsp.NewButterworthBandPass(ip.cfg.BandpassOrder, ip.cfg.BandpassLow, ip.cfg.BandpassHigh, ip.cfg.SampleRate)
	if err != nil {
		return nil, err
	}
	return ip, nil
}

func (ip *inproc) close() {
	if ip.eng != nil {
		_ = ip.eng.Close()
	}
}

// reset mirrors the generator's {"mode":"headtalk"}: it ends any
// facing session.
func (ip *inproc) reset() {
	ip.refSys.SetMode(core.ModeHeadTalk)
	if ip.svcSys != nil {
		ip.svcSys.SetMode(core.ModeHeadTalk)
	}
}

// decide runs one wake decision. raw is the WAV file the daemon would
// decode; rec is its decoded form (used when untraced).
func (ip *inproc) decide(raw []byte, rec *audio.Recording) (outcome, error) {
	if ip.tr == nil {
		d, err := ip.refSys.ProcessWake(context.Background(), rec)
		if err != nil {
			return outcome{}, err
		}
		return decisionOutcome(d), nil
	}
	t := ip.tr
	root := t.begin("request", -1)
	defer t.end(root)
	s := t.begin("audio.wav_decode", root)
	rec, err := audio.ReadWAVLimit(bytes.NewReader(raw), 0)
	t.end(s)
	if err != nil {
		return outcome{}, err
	}
	d, err := ip.tracedDecision(rec, root)
	if err != nil {
		return outcome{}, err
	}
	return decisionOutcome(d), nil
}

// tracedDecision times one decision three ways: through the serving
// engine, through core.ProcessWake (the reference, with its heap
// allocations), and as the sequence of layer calls ProcessWake makes
// on the path that decision took.
func (ip *inproc) tracedDecision(rec *audio.Recording, parent int) (core.Decision, error) {
	t := ip.tr
	ctx := context.Background()
	s := t.begin("serve.decide", parent)
	sd, serr := ip.eng.Decide(ctx, rec)
	t.end(s)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c := t.begin("core.process_wake", parent)
	d, err := ip.refSys.ProcessWake(ctx, rec)
	t.end(c)
	runtime.ReadMemStats(&ms1)
	t.spans[c].Allocs = ms1.Mallocs - ms0.Mallocs
	t.spans[c].Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	if err != nil {
		return d, err
	}
	if serr != nil {
		return d, fmt.Errorf("serving engine: %w", serr)
	}
	if sd.Accepted != d.Accepted || sd.Reason != d.Reason {
		return d, fmt.Errorf("serving engine decided %s, core %s", sd.Reason.Slug(), d.Reason.Slug())
	}
	if err := ip.layers(rec, d, c); err != nil {
		return d, err
	}
	return d, nil
}

// layers replays the calls core.ProcessWake makes for a decision,
// timing each layer's public function. Which gates run follows the
// decision itself (LiveRan, FingerprintRan, FacingRan), so the spans
// cover exactly the path the decision took and their sum reconciles
// with core.process_wake.
func (ip *inproc) layers(rec *audio.Recording, d core.Decision, parent int) error {
	t := ip.tr
	s := t.begin("audio.validate", parent)
	err := audio.Validate(rec, ip.cfg.InputValidation)
	t.end(s)
	if err != nil {
		return nil // rejected as bad input: no further layers ran
	}
	s = t.begin("mic.health", parent)
	mic.AssessHealthInto(&ip.health, rec, ip.cfg.ChannelHealth)
	t.end(s)
	if len(ip.health.Healthy) != len(rec.Channels) {
		return fmt.Errorf("capture has degraded channels (%d of %d healthy); the corpus must not", len(ip.health.Healthy), len(rec.Channels))
	}
	if !d.LiveRan && !d.FingerprintRan && !d.FacingRan {
		return nil
	}

	var pre *audio.Recording
	if d.LiveRan || d.FacingRan {
		s = t.begin("dsp.bandpass", parent)
		pre = ip.bandpass(rec)
		t.end(s)
	}
	if d.LiveRan {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		s = t.begin("liveness.score", parent)
		ip.mono = pre.MonoInto(ip.mono)
		_, err := ip.set.Liveness.Score(ip.mono, rec.SampleRate)
		t.end(s)
		runtime.ReadMemStats(&ms1)
		t.spans[s].Allocs = ms1.Mallocs - ms0.Mallocs
		t.spans[s].Bytes = ms1.TotalAlloc - ms0.TotalAlloc
		if err != nil {
			return err
		}
	}
	if d.FingerprintRan {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		s = t.begin("liveness.fingerprint", parent)
		_, _, err := ip.set.ArrayFingerprint.Check(rec)
		t.end(s)
		runtime.ReadMemStats(&ms1)
		t.spans[s].Allocs = ms1.Mallocs - ms0.Mallocs
		t.spans[s].Bytes = ms1.TotalAlloc - ms0.TotalAlloc
		if err != nil {
			return err
		}
	}
	if !d.FacingRan {
		return nil
	}
	s = t.begin("features.extract", parent)
	feats, err := ip.featWS.Extract(pre, ip.cfg.Features)
	t.end(s)
	if err != nil {
		return err
	}
	// The GCC step inside extraction, timed on its own: all pairs over
	// the same analysis window Extract focuses on.
	window := ip.focusWindow(pre)
	g := t.begin("srp.gcc", s)
	_, err = ip.srpWS.AllPairs(window, srp.PairOptions{
		MaxLag: ip.cfg.Features.MaxLag, PHAT: ip.cfg.Features.UsePHAT, SampleRate: ip.cfg.Features.SampleRate,
		BandLo: ip.cfg.Features.GCCBandLo, BandHi: ip.cfg.Features.GCCBandHi,
	})
	t.end(g)
	if err != nil {
		return err
	}
	// Extract's result aliases its workspace; nothing ran on it since.
	s = t.begin("orientation.classify", parent)
	m := ip.set.Orientation
	if err := m.CheckFeatures(feats); err != nil {
		t.end(s)
		return err
	}
	_, _, ip.ml = m.PredictScore(feats, ip.ml)
	t.end(s)
	return nil
}

// bandpass is the preprocessing band-pass on reused buffers, as a
// serving worker runs it.
func (ip *inproc) bandpass(rec *audio.Recording) *audio.Recording {
	n, nch := rec.Len(), len(rec.Channels)
	if cap(ip.preBack) < n*nch {
		ip.preBack = make([]float64, n*nch)
	}
	ip.preChans = ip.preChans[:0]
	for i, ch := range rec.Channels {
		dst := ip.preBack[i*n : (i+1)*n : (i+1)*n]
		ip.bp.ApplyTo(dst, ch)
		ip.preChans = append(ip.preChans, dst)
	}
	return &audio.Recording{SampleRate: rec.SampleRate, Channels: ip.preChans}
}

// focusWindow returns the highest-energy AnalysisWindow-long slice of
// every channel, located the way feature extraction locates it.
func (ip *inproc) focusWindow(rec *audio.Recording) [][]float64 {
	window := ip.cfg.Features.AnalysisWindow
	if window == 0 {
		window = 32768
	}
	n := rec.Len()
	start := 0
	if window > 0 && n > window {
		ip.mono = rec.MonoInto(ip.mono)
		best := -1.0
		for st := 0; st+window <= n; st += 1024 {
			var acc float64
			for i := st; i < st+window; i += 4 {
				acc += ip.mono[i] * ip.mono[i]
			}
			if acc > best {
				best, start = acc, st
			}
		}
	} else {
		window = n
	}
	ip.focus = ip.focus[:0]
	for _, ch := range rec.Channels {
		ip.focus = append(ip.focus, ch[start:start+window])
	}
	return ip.focus
}

// streamManager builds a session manager configured like the daemon
// tenant's streaming front end. decide runs each spotted candidate.
func (ip *inproc) streamManager(decide stream.DecideFunc) (*stream.Manager, error) {
	return stream.NewManager(stream.Config{
		SampleRate:   sampleRate,
		Channels:     numChannels,
		Spotter:      ip.spotter,
		Speakers:     &stream.TrackerConfig{},
		Decide:       decide,
		JanitorEvery: -1,
	})
}

// replayStats is what one in-process cycle replay observed beyond the
// outcomes.
type replayStats struct {
	resetNS    []int64
	pushNS     map[string][]int64 // by status
	candidates int
	useful     int
	spotted    int // pushes that ran the spotter
	pushes     int
	// windows are the candidate windows, kept when the replay times
	// the stream layer.
	windows []*audio.Recording
}

// replayCycle runs one cycle of c's ops in-process and returns the
// outcome of every wake and chunk op, keyed by op position.
func (ip *inproc) replayCycle(c *corpus) (map[int]outcome, *replayStats, error) {
	out := map[int]outcome{}
	st := &replayStats{pushNS: map[string][]int64{}}
	var mgr *stream.Manager
	if len(c.Streams) > 0 {
		var err error
		var timed *replayStats
		if ip.timeStream {
			timed = st
		}
		if mgr, err = ip.candidateManager(timed); err != nil {
			return nil, nil, err
		}
		defer mgr.Close()
	}
	ctx := context.Background()
	for pos, o := range c.Ops {
		if ip.tr != nil {
			ip.tr.req = pos
		}
		switch o.Kind {
		case opReset:
			if ip.tr != nil {
				// Listen pushes decoded samples; its audio layer work is
				// decoding the stream files, timed once per cycle.
				for _, name := range c.Streams {
					if raw := c.raw[name]; raw != nil {
						s := ip.tr.begin("audio.wav_decode", -1)
						_, err := audio.ReadWAVLimit(bytes.NewReader(raw), 0)
						ip.tr.end(s)
						if err != nil {
							return nil, nil, err
						}
					}
				}
			}
			start := time.Now()
			ip.reset()
			st.resetNS = append(st.resetNS, time.Since(start).Nanoseconds())
			for i := range c.Streams {
				mgr.End(streamID(i))
			}
		case opWake:
			got, err := ip.decide(c.raw[o.WAV], c.recs[o.WAV])
			if err != nil {
				return nil, nil, fmt.Errorf("op %d (%s): %w", pos, o.Label, err)
			}
			out[pos] = got
		case opChunk:
			frame := c.chunk(o)
			var root int
			if ip.tr != nil {
				root = ip.tr.begin("stream.push", -1)
				ip.pushSpan = root
			}
			start := time.Now()
			res, err := mgr.Push(ctx, streamID(o.Stream), frame)
			ns := time.Since(start).Nanoseconds()
			if ip.tr != nil {
				ip.tr.end(root)
				ip.tr.spans[root].Attr = res.Status.String()
			}
			if err != nil {
				return nil, nil, fmt.Errorf("op %d: push: %w", pos, err)
			}
			if res.Err != nil {
				return nil, nil, fmt.Errorf("op %d: candidate decision: %w", pos, res.Err)
			}
			status := res.Status.String()
			st.pushes++
			st.pushNS[status] = append(st.pushNS[status], ns)
			if res.Status != stream.StatusSilent {
				st.spotted++ // past the energy gate: the spotter ran
			}
			got := outcome{Status: status}
			if res.Decision != nil {
				got.Accepted = res.Decision.Accepted
				got.Slug = res.Decision.Reason.Slug()
			}
			out[pos] = got
			if res.Status == stream.StatusDecided {
				st.candidates++
				if c.utteranceAt(o) >= 0 {
					st.useful++
				}
				ip.reset()
			}
		}
	}
	return out, st, nil
}

// speakerMaxLag is the speaker tracker's default GCC half-window, which
// the daemon's streaming tenants use.
const speakerMaxLag = 16

// candidateManager builds the stream manager whose candidates run the
// reference decision (traced when a tracer is attached).
// With st set, it also keeps every candidate window in st.windows.
func (ip *inproc) candidateManager(st *replayStats) (*stream.Manager, error) {
	return ip.streamManager(func(ctx context.Context, rec *audio.Recording, _ stream.SpanDurations) (core.Decision, error) {
		if st != nil {
			// The window is the callee's own; keep it to time the
			// speaker signature on it once the replay is done.
			st.windows = append(st.windows, rec)
		}
		if ip.tr == nil {
			return ip.refSys.ProcessWake(ctx, rec)
		}
		return ip.tracedDecision(rec, ip.pushSpan)
	})
}

// replayFor replays cycles until d has passed (at least one; exactly
// one when untraced, since the outcomes repeat) and returns the first
// cycle's outcomes with the merged statistics of all cycles.
func (ip *inproc) replayFor(c *corpus, d time.Duration) (map[int]outcome, *replayStats, error) {
	start := time.Now()
	expected, st, err := ip.replayCycle(c)
	if err != nil {
		return nil, nil, err
	}
	for ip.tr != nil && time.Since(start) < d {
		out, more, err := ip.replayCycle(c)
		if err != nil {
			return nil, nil, err
		}
		for pos, want := range expected {
			if out[pos] != want {
				return nil, nil, fmt.Errorf("op %d: in-process replay is not repeatable: %+v then %+v", pos, want, out[pos])
			}
		}
		st.merge(more)
	}
	return expected, st, nil
}

func (st *replayStats) merge(o *replayStats) {
	st.resetNS = append(st.resetNS, o.resetNS...)
	for k, v := range o.pushNS {
		st.pushNS[k] = append(st.pushNS[k], v...)
	}
	st.candidates += o.candidates
	st.useful += o.useful
	st.spotted += o.spotted
	st.pushes += o.pushes
	st.windows = append(st.windows, o.windows...)
}

// signatureMS times the stream layer's speaker signature, as a push
// computes it, on each candidate window the replay kept.
func signatureMS(windows []*audio.Recording) ([]float64, error) {
	var out []float64
	for _, rec := range windows {
		start := time.Now()
		if _, err := stream.Signature(rec, speakerMaxLag); err != nil {
			return nil, err
		}
		out = append(out, durMS(time.Since(start).Nanoseconds()))
	}
	return out, nil
}
