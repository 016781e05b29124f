package main

import (
	"fmt"
	"math"
	"time"

	"headtalk/internal/audio"
)

// wallStats are the raw (uncalibrated) timings of a load phase.
type wallStats struct {
	decisionMS    []float64
	nondecisionUS []float64
}

func wallOf(lr *loadResult) wallStats {
	var w wallStats
	for _, s := range lr.samples {
		if s.decision {
			w.decisionMS = append(w.decisionMS, durMS(s.rttNS))
		} else {
			w.nondecisionUS = append(w.nondecisionUS, float64(s.rttNS)/1e3)
		}
	}
	return w
}

// accuracy scores one cycle's outcomes against the corpus ground
// truth. The correctness check has already tied every served response
// to these outcomes, so they are the served decisions.
//
// Wake workloads score every wake request. Listen scores utterances:
// an accept-truth utterance counts as accepted when a candidate
// covering it was accepted; a reject-truth utterance as rejected when
// none was; a candidate covering no utterance is a reject-truth item of
// its own. recall is utterances decided over utterances offered.
func accuracy(c *corpus, out map[int]outcome) (trueAccept, trueReject, recall float64) {
	var acc, accN, rej, rejN, decided, offered float64
	score := func(truth, accepted bool) {
		if truth {
			accN++
			if accepted {
				acc++
			}
		} else {
			rejN++
			if !accepted {
				rej++
			}
		}
	}
	if len(c.Streams) == 0 {
		for pos, o := range c.Ops {
			if o.Kind != opWake {
				continue
			}
			offered++
			got := out[pos]
			if got.Slug != "" {
				decided++
			}
			score(o.Accept, got.Accepted)
		}
	} else {
		accepted := make([]bool, len(c.Utterances))
		covered := make([]bool, len(c.Utterances))
		for pos, o := range c.Ops {
			if o.Kind != opChunk || out[pos].Status != "decided" {
				continue
			}
			u := c.utteranceAt(o)
			if u < 0 {
				score(false, out[pos].Accepted)
				continue
			}
			covered[u] = true
			accepted[u] = accepted[u] || out[pos].Accepted
		}
		for i, u := range c.Utterances {
			offered++
			if covered[i] {
				decided++
			}
			score(u.Accept, accepted[i])
		}
	}
	return acc / math.Max(accN, 1), rej / math.Max(rejN, 1), decided / math.Max(offered, 1)
}

// endToEnd computes the gated metrics. Every timing is calibrated:
// raw × refKernelMS / (this run's median kernel time).
func endToEnd(c *corpus, lr *loadResult, setupNS []int64, expected map[int]outcome, scale float64) map[string]metric {
	w := wallOf(lr)
	var setupS []float64
	for _, ns := range setupNS {
		setupS = append(setupS, float64(ns)/1e9)
	}
	_, _, recall := accuracy(c, expected)
	return map[string]metric{
		"setup_s":             {median(setupS) * scale, "s"},
		"decision_p50_ms":     {median(w.decisionMS) * scale, "ms"},
		"cpu_ms_per_decision": {lr.cpuS * 1e3 / math.Max(float64(lr.decisions), 1) * scale, "ms"},
		"cpu_per_audio_s":     {lr.cpuS / math.Max(lr.audioS, 1e-9) * scale, "s/s"},
		"spot_recall":         {recall, "fraction"},
		"served_frac":         {1 - float64(lr.errors+len(lr.mismatches))/math.Max(float64(lr.sent), 1), "fraction"},
	}
}

// spanStats summarizes the traced replay.
type spanStats struct {
	byName       map[string][]float64 // ms
	unattributed []float64
	serveMinus   []float64
	allocs       []float64
	bytes        []float64
	liveAllocs   []float64
}

// layerNames are the layer calls that replay one ProcessWake; their
// sum reconciles with core.process_wake. srp.gcc is a part of
// features.extract and is not summed.
var layerNames = map[string]bool{
	"audio.validate": true, "mic.health": true, "dsp.bandpass": true,
	"liveness.score": true, "liveness.fingerprint": true,
	"features.extract": true, "orientation.classify": true,
}

func summarizeSpans(tr *tracer) spanStats {
	st := spanStats{byName: map[string][]float64{}}
	layerSum := map[int]float64{}
	liveAllocs := map[int]float64{}
	serveByParent := map[int]float64{}
	for _, s := range tr.spans {
		st.byName[s.Name] = append(st.byName[s.Name], s.ms())
		if s.Name == "serve.decide" {
			serveByParent[s.Parent] = s.ms()
		}
		if s.Parent >= 0 && layerNames[s.Name] {
			layerSum[s.Parent] += s.ms()
			if s.Name == "liveness.score" || s.Name == "liveness.fingerprint" {
				liveAllocs[s.Parent] += float64(s.Allocs)
			}
		}
	}
	for i, s := range tr.spans {
		if s.Name != "core.process_wake" {
			continue
		}
		st.unattributed = append(st.unattributed, s.ms()-layerSum[i])
		st.serveMinus = append(st.serveMinus, serveByParent[s.Parent]-s.ms())
		st.allocs = append(st.allocs, float64(s.Allocs))
		st.bytes = append(st.bytes, float64(s.Bytes))
		if a, ok := liveAllocs[i]; ok {
			st.liveAllocs = append(st.liveAllocs, a)
		}
	}
	return st
}

// orZero is the median of xs, or 0 when the layer never ran.
func orZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func nsToUS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e3
	}
	return out
}

// streamOf is the streamed-replay summary behind the stream.* metrics.
func streamOf(st *replayStats) (silentUS, nowakeUS, candidateMS, spotFrac, usefulFrac float64) {
	silentUS = orZero(nsToUS(st.pushNS["silent"]))
	nowake := append(nsToUS(st.pushNS["buffered"]), nsToUS(st.pushNS["no_wake"])...)
	nowakeUS = orZero(nowake)
	var cand []float64
	for _, x := range nsToUS(st.pushNS["decided"]) {
		cand = append(cand, x/1e3)
	}
	candidateMS = orZero(cand)
	spotFrac = float64(st.spotted) / math.Max(float64(st.pushes), 1)
	usefulFrac = float64(st.useful) / math.Max(float64(st.candidates), 1)
	return
}

// perLayer computes the traced run's metrics: the per-layer times from
// the in-process replay, the raw wall-clock and tail values of the load
// phase, the streamed replay (the listen corpus itself, or the
// workload's captures embedded in streams), and the peer-wire cost.
func perLayer(cfg config, c *corpus, ip *inproc, lr *loadResult, e2e map[string]metric,
	setupNS []int64, expected map[int]outcome, rst *replayStats, kernel *calibKernel, scale, calib float64,
	envelope []byte, logDir string) (map[string]metric, error) {
	w := wallOf(lr)
	sp := summarizeSpans(ip.tr)
	var setupS []float64
	for _, ns := range setupNS {
		setupS = append(setupS, float64(ns)/1e9)
	}
	m := map[string]metric{
		"calib_ms":                 {calib, "ms"},
		"wall.setup_s":             {median(setupS), "s"},
		"wall.decision_p50_ms":     {median(w.decisionMS), "ms"},
		"wall.nondecision_p50_us":  {median(w.nondecisionUS), "us"},
		"wall.cpu_ms_per_decision": {e2e["cpu_ms_per_decision"].Value / scale, "ms"},
		"wall.cpu_per_audio_s":     {e2e["cpu_per_audio_s"].Value / scale, "s/s"},
		"tail.decision_p90_ms":     {quantile(w.decisionMS, 0.9), "ms"},
		"tail.decision_p99_ms":     {quantile(w.decisionMS, 0.99), "ms"},
		"tail.decision_samples":    {float64(len(w.decisionMS)), "count"},
		"tail.nondecision_p90_us":  {quantile(w.nondecisionUS, 0.9), "us"},
		"tail.nondecision_p99_us":  {quantile(w.nondecisionUS, 0.99), "us"},
		"tail.nondecision_samples": {float64(len(w.nondecisionUS)), "count"},
		"trace.decisions":          {float64(len(sp.byName["core.process_wake"])), "count"},
	}
	serveMS := orZero(sp.byName["serve.decide"])
	coreMS := orZero(sp.byName["core.process_wake"])
	m["serve.decide_ms"] = metric{serveMS, "ms"}
	m["serve.overhead_ms"] = metric{orZero(sp.serveMinus), "ms"}
	m["core.process_wake_ms"] = metric{coreMS, "ms"}
	m["core.unattributed_ms"] = metric{orZero(sp.unattributed), "ms"}
	m["core.allocs_per_decision"] = metric{orZero(sp.allocs), "count"}
	m["core.bytes_per_decision"] = metric{orZero(sp.bytes), "bytes"}
	for _, name := range []string{"audio.wav_decode", "audio.validate", "mic.health", "dsp.bandpass",
		"liveness.score", "liveness.fingerprint", "features.extract", "srp.gcc", "orientation.classify"} {
		m[name+"_ms"] = metric{orZero(sp.byName[name]), "ms"}
	}
	m["liveness.allocs"] = metric{orZero(sp.liveAllocs), "count"}

	// Streamed replay, untraced so candidate pushes are timed as the
	// daemon runs them: the listen corpus itself, or for the utterance
	// workloads the same captures embedded in ambient streams.
	sc := c
	if len(c.Streams) == 0 {
		sc = streamedCorpus(c)
	}
	sip, err := newInproc(fromEnvelope(envelope), false)
	if err != nil {
		return nil, err
	}
	sip.timeStream = true
	_, streamSt, err := sip.replayCycle(sc)
	sip.close()
	if err != nil {
		return nil, err
	}
	sigMS, err := signatureMS(streamSt.windows)
	if err != nil {
		return nil, err
	}
	silentUS, nowakeUS, candMS, spotFrac, usefulFrac := streamOf(streamSt)
	m["stream.push_silent_us"] = metric{silentUS, "us"}
	m["stream.push_nowake_us"] = metric{nowakeUS, "us"}
	m["stream.candidate_ms"] = metric{candMS, "ms"}
	m["stream.signature_ms"] = metric{orZero(sigMS), "ms"}
	// headtalkd.overhead_ms: the daemon's share of a decision round
	// trip beyond the same work in-process — the serving engine's
	// decision, or on listen the whole candidate push.
	inprocMS := serveMS
	if len(c.Streams) > 0 {
		inprocMS = candMS
	}
	m["headtalkd.overhead_ms"] = metric{median(w.decisionMS) - inprocMS, "ms"}
	ta, tr, _ := accuracy(c, expected)
	m["quality.true_accept_frac"] = metric{ta, "fraction"}
	m["quality.true_reject_frac"] = metric{tr, "fraction"}
	m["stream.spot_frac"] = metric{spotFrac, "fraction"}
	m["stream.useful_candidate_frac"] = metric{usefulFrac, "fraction"}

	// headtalkd.frame_us: the daemon's cost of a request that decides
	// nothing, beyond the in-process work it triggers.
	var inprocUS float64
	if len(c.Streams) > 0 {
		var pushes []int64
		for status, ns := range streamSt.pushNS {
			if status != "decided" {
				pushes = append(pushes, ns...)
			}
		}
		inprocUS = orZero(nsToUS(pushes))
	} else {
		inprocUS = orZero(nsToUS(rst.resetNS))
	}
	m["headtalkd.frame_us"] = metric{median(w.nondecisionUS) - inprocUS, "us"}

	fwd, err := forwardCost(cfg, c, lr, expected, kernel, envelope, logDir)
	if err != nil {
		return nil, err
	}
	m["cluster.forward_ms"] = metric{fwd, "ms"}
	return m, nil
}

// forwardCost measures the peer-wire cost on this workload's requests:
// a short second load phase over the same cycle through node a of a
// two-node cluster, which forwards every decision to the owner, node b.
// It returns the median, over matched op positions, of the forwarded
// minus the direct round trip.
func forwardCost(cfg config, c *corpus, lr *loadResult, expected map[int]outcome,
	kernel *calibKernel, envelope []byte, logDir string) (float64, error) {
	cluster, err := startCluster(cfg, envelope, logDir)
	if err != nil {
		return 0, err
	}
	defer cluster.stop()
	fwd, err := runLoad(cluster, c, expected, kernel, loadOptions{duration: forwardProbe, warmOps: warmOps(c)})
	if err != nil {
		return 0, err
	}
	if len(fwd.mismatches) > 0 || fwd.errors > 0 {
		return 0, fmt.Errorf("forward probe: %d mismatches, %d errors", len(fwd.mismatches), fwd.errors)
	}
	// Resets go straight to node b in both phases; only decisions and
	// chunks cross the peer wire.
	direct := map[int][]float64{}
	for _, s := range lr.samples {
		if c.Ops[s.pos].Kind != opReset {
			direct[s.pos] = append(direct[s.pos], durMS(s.rttNS))
		}
	}
	var diffs []float64
	for _, s := range fwd.samples {
		if ref, ok := direct[s.pos]; ok {
			diffs = append(diffs, durMS(s.rttNS)-median(ref))
		}
	}
	return orZero(diffs), nil
}

// forwardProbe is how long the traced run's second load phase measures.
const forwardProbe = 3 * time.Second

// streamedCorpus embeds a wake corpus's captures in four ambient
// streams (near-silence before each capture), for the stream.* metrics
// of workloads that do not stream.
func streamedCorpus(c *corpus) *corpus {
	sc := &corpus{Workload: c.Workload + "-streamed", Seed: c.Seed, raw: map[string][]byte{}}
	var chans [listenStreams][numChannels][]float64
	k := 0
	for _, o := range c.Ops {
		if o.Kind != opWake {
			continue
		}
		rec := c.recs[o.WAV]
		s := k % listenStreams
		k++
		gap := int(0.4 * sampleRate)
		for ch := range chans[s] {
			chans[s][ch] = append(chans[s][ch], make([]float64, gap)...)
		}
		start := len(chans[s][0])
		n := rec.Len()
		pad := (chunkSamples - n%chunkSamples) % chunkSamples
		for ch := range chans[s] {
			chans[s][ch] = append(chans[s][ch], rec.Channels[ch]...)
			chans[s][ch] = append(chans[s][ch], make([]float64, pad)...)
		}
		sc.Utterances = append(sc.Utterances, utterance{Stream: s, Start: start, End: start + n, Label: o.Label, Accept: o.Accept})
	}
	var lens []int
	for s := range chans {
		rec := &audio.Recording{SampleRate: sampleRate, Channels: chans[s][:]}
		sc.streams = append(sc.streams, rec)
		sc.Streams = append(sc.Streams, streamID(s))
		lens = append(lens, rec.Len())
	}
	sc.Ops = roundRobin(lens)
	return sc
}

// roundRobin is a listen cycle: a reset, then every stream's chunks
// interleaved until all are exhausted.
func roundRobin(streamLens []int) []op {
	ops := []op{{Kind: opReset}}
	for off := 0; ; off += chunkSamples {
		any := false
		for si, n := range streamLens {
			if off+chunkSamples <= n {
				ops = append(ops, op{Kind: opChunk, Stream: si, Offset: off})
				any = true
			}
		}
		if !any {
			return ops
		}
	}
}
