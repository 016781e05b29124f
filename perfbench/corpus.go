package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"

	"headtalk/internal/audio"
	"headtalk/internal/dataset"
)

// Corpus conditions. The gates are enrolled on "Computer" with the
// 4-mic D3 array in the lab room (the daemon tenant below), so every
// capture uses exactly that profile; anything else would be rejected
// before the layers the workloads are meant to reach.
const (
	corpusWord   = "Computer"
	corpusDevice = "D3"
	corpusRoom   = "lab"
	sampleRate   = 48000
	chunkSamples = 480 // 10 ms at 48 kHz
	numChannels  = 4
)

var (
	facingAngles  = []float64{0, 15, -15, 30, -30}
	avertedAngles = []float64{90, -90, 135, -135, 180}
	distances     = []float64{1, 3, 5}
	replayDevices = []string{"Smart TV", "Sony SRS-X5"}
)

// opKind is one step of a workload's request sequence.
type opKind int

const (
	// opReset ends any facing session: {"mode":"headtalk"}. On listen
	// it also ends every stream session.
	opReset opKind = iota
	// opWake is one wake decision on a WAV file.
	opWake
	// opChunk pushes one 10 ms chunk of a stream session.
	opChunk
)

// op is one request of a cycle. A workload repeats its cycle; every
// cycle starts with a reset, so decisions depend only on the position
// inside the cycle.
type op struct {
	Kind opKind `json:"kind"`
	// Wake: the capture file (relative to the corpus directory), its
	// condition label and the ground truth.
	WAV    string `json:"wav,omitempty"`
	Label  string `json:"label,omitempty"`
	Accept bool   `json:"accept,omitempty"`
	// Chunk: the stream index and the first sample of the chunk.
	Stream int `json:"stream,omitempty"`
	Offset int `json:"offset,omitempty"`
}

// utterance is one wake word embedded in a listen stream.
type utterance struct {
	Stream int    `json:"stream"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	Label  string `json:"label"`
	Accept bool   `json:"accept"`
}

// corpus is a rendered workload input: the request cycle, the stream
// files (listen only) and the ground truth.
type corpus struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Ops        []op        `json:"ops"`
	Streams    []string    `json:"streams,omitempty"`
	Utterances []utterance `json:"utterances,omitempty"`

	dir string
	// recs caches decoded wake captures by WAV name; streams holds
	// decoded listen streams. Both are filled by load.
	recs    map[string]*audio.Recording
	raw     map[string][]byte
	streams []*audio.Recording
}

// capture is one utterance to render.
type capture struct {
	name   string
	cond   dataset.Condition
	label  string
	accept bool
}

// corpusFormat is bumped whenever rendering changes, so stale caches
// are never reused.
const corpusFormat = 1

// genSeed derives the generator seed from the benchmark seed, so that
// no seed reproduces the daemon's own enrollment captures.
func genSeed(seed uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "perfbench-corpus|%d|%d", corpusFormat, seed)
	return h.Sum64()
}

func liveCond(angle, dist float64, rep int) dataset.Condition {
	return dataset.Condition{Room: corpusRoom, Device: corpusDevice, Word: corpusWord,
		Distance: dist, AngleDeg: angle, Rep: rep}
}

func replayCond(device string, dist float64, rep int) dataset.Condition {
	c := liveCond(0, dist, rep)
	c.Replay = device
	return c
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.IntN(len(xs))] }

func label(c dataset.Condition) string {
	if c.Replay != "" {
		return fmt.Sprintf("replay:%s@%gm", c.Replay, c.Distance)
	}
	return fmt.Sprintf("live:%+gdeg@%gm", c.AngleDeg, c.Distance)
}

// wakeCaptures is the wake cycle: 24 live facing, 12 live averted and
// 12 replays (Smart TV and Sony at 1, 3 and 5 m), shuffled. The counts
// are fixed so the accept/reject mix — and with it the latency
// distribution — is the same for every seed.
func wakeCaptures(rng *rand.Rand) []capture {
	var cs []capture
	rep := 100
	add := func(c dataset.Condition, accept bool) {
		cs = append(cs, capture{name: fmt.Sprintf("w%03d.wav", len(cs)), cond: c, label: label(c), accept: accept})
		rep++
	}
	for i := 0; i < 24; i++ {
		add(liveCond(facingAngles[i%len(facingAngles)], pick(rng, distances), rep), true)
	}
	for i := 0; i < 12; i++ {
		add(liveCond(avertedAngles[i%len(avertedAngles)], pick(rng, distances), rep), false)
	}
	for i := 0; i < 12; i++ {
		add(replayCond(replayDevices[i%2], distances[(i/2)%3], rep), false)
	}
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// sessionGroups shapes the session cycle: each group is one facing
// live wake that opens a session, then seven follow-ups riding it —
// five live at any angle, one Smart TV and one Sony replay.
const sessionGroups = 6

func sessionCaptures(rng *rand.Rand) [][]capture {
	var groups [][]capture
	n, rep := 0, 200
	mk := func(c dataset.Condition, accept bool) capture {
		cp := capture{name: fmt.Sprintf("s%03d.wav", n), cond: c, label: label(c), accept: accept}
		n++
		rep++
		return cp
	}
	all := append(append([]float64{}, facingAngles...), avertedAngles...)
	for g := 0; g < sessionGroups; g++ {
		grp := []capture{mk(liveCond(pick(rng, []float64{0, 15, -15}), pick(rng, []float64{1, 3}), rep), true)}
		var fu []capture
		for i := 0; i < 5; i++ {
			fu = append(fu, mk(liveCond(pick(rng, all), pick(rng, distances), rep), true))
		}
		for _, dev := range replayDevices {
			fu = append(fu, mk(replayCond(dev, pick(rng, distances), rep), false))
		}
		rng.Shuffle(len(fu), func(i, j int) { fu[i], fu[j] = fu[j], fu[i] })
		groups = append(groups, append(grp, fu...))
	}
	return groups
}

// listenStreams and listenPerStream shape the listen cycle: K stream
// sessions, each room ambient and TV noise with wake words embedded —
// a quarter live facing, a quarter live averted, half replayed (a
// device next to a TV). Most candidates therefore stop at the liveness
// gate, which keeps the median candidate on one path for every seed.
const (
	listenStreams   = 4
	listenPerStream = 6
)

func listenCaptures(rng *rand.Rand) []capture {
	var cs []capture
	rep := 300
	add := func(c dataset.Condition, accept bool) {
		cs = append(cs, capture{name: fmt.Sprintf("l%03d", len(cs)), cond: c, label: label(c), accept: accept})
		rep++
	}
	n := listenStreams * listenPerStream
	for i := 0; i < n/4; i++ {
		add(liveCond(facingAngles[i%len(facingAngles)], pick(rng, distances[:2]), rep), true)
		add(liveCond(avertedAngles[i%len(avertedAngles)], pick(rng, distances[:2]), rep), false)
	}
	for i := 0; i < n/2; i++ {
		add(replayCond(replayDevices[i%2], pick(rng, distances[:2]), rep), false)
	}
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// render synthesizes captures on two goroutines. Each goroutine owns
// its generator; a capture depends only on the generator seed and its
// condition, so the output does not depend on scheduling.
func render(seed uint64, cs []capture) ([]*audio.Recording, error) {
	out := make([]*audio.Recording, len(cs))
	errs := make([]error, len(cs))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := dataset.NewGenerator(genSeed(seed))
			for i := w; i < len(cs); i += workers {
				out[i], errs[i] = dataset.CaptureRecording(gen, cs[i].cond)
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rendering %s: %w", cs[i].label, err)
		}
	}
	return out, nil
}

func writeWAV(path string, rec *audio.Recording) error {
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, rec); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// buildCorpus renders the workload's cycle for seed into dir and
// returns its manifest.
func buildCorpus(workload string, seed uint64, dir string) (*corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", workload, seed)
	rng := rand.New(rand.NewPCG(seed, h.Sum64()))
	c := &corpus{Workload: workload, Seed: seed}

	wakeOps := func(cs []capture, resetEach bool) error {
		recs, err := render(seed, cs)
		if err != nil {
			return err
		}
		for i, cp := range cs {
			if err := writeWAV(filepath.Join(dir, cp.name), recs[i]); err != nil {
				return err
			}
			if resetEach {
				c.Ops = append(c.Ops, op{Kind: opReset})
			}
			c.Ops = append(c.Ops, op{Kind: opWake, WAV: cp.name, Label: cp.label, Accept: cp.accept})
		}
		return nil
	}

	switch workload {
	case "wake":
		if err := wakeOps(wakeCaptures(rng), true); err != nil {
			return nil, err
		}
	case "session":
		for _, grp := range sessionCaptures(rng) {
			c.Ops = append(c.Ops, op{Kind: opReset})
			if err := wakeOps(grp, false); err != nil {
				return nil, err
			}
		}
	case "listen":
		if err := c.buildListen(rng, seed, dir); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644); err != nil {
		return nil, err
	}
	c.dir = dir
	return c, nil
}

// tvRMS is the level of the TV-noise segments of the listen streams
// (linear RMS at full scale): above the stream energy gate (mean
// square 1e-4), so the spotter runs on them.
const tvRMS = 0.03

// ambientCond renders the room's own noise floor through the array: a
// capture whose speech is far below the ambient level. Gaps between
// wake words are cut from it, so the audio a candidate window holds
// before the word is what the device hears in the room.
func ambientCond(rep int) dataset.Condition {
	c := liveCond(0, 3, rep)
	c.SPL = 1
	return c
}

// ambientTape hands out consecutive slices of rendered room ambient.
type ambientTape struct {
	rec *audio.Recording
	pos int
}

func (a *ambientTape) appendTo(chans [][]float64, n int) {
	for n > 0 {
		if a.pos >= a.rec.Len() {
			a.pos = 0
		}
		k := min(n, a.rec.Len()-a.pos)
		for ch := range chans {
			chans[ch] = append(chans[ch], a.rec.Channels[ch][a.pos:a.pos+k]...)
		}
		a.pos += k
		n -= k
	}
}

// buildListen renders the listen streams: per stream, room ambient and
// TV-noise segments alternating with the embedded wake words, written
// as one 4-channel WAV each. Chunks are cut from the decoded (16-bit
// quantized) WAV so daemon and in-process replay see the same samples.
func (c *corpus) buildListen(rng *rand.Rand, seed uint64, dir string) error {
	flat := listenCaptures(rng)
	for s := 0; s < listenStreams; s++ {
		flat = append(flat, capture{cond: ambientCond(400 + s), label: "ambient"})
	}
	recs, err := render(seed, flat)
	if err != nil {
		return err
	}
	var streams [][]capture
	var streamRecs [][]*audio.Recording
	for s := 0; s < listenStreams; s++ {
		lo, hi := s*listenPerStream, (s+1)*listenPerStream
		streams = append(streams, flat[lo:hi])
		streamRecs = append(streamRecs, recs[lo:hi])
	}
	noise := rand.New(rand.NewPCG(seed, 0x5eed))
	var streamLens []int
	for si, caps := range streams {
		amb := &ambientTape{rec: recs[len(recs)-len(streams)+si]}
		chans := make([][]float64, numChannels)
		gap := func(seconds float64) int {
			n := int(seconds * sampleRate)
			return n - n%chunkSamples
		}
		tv := func(n int) {
			base := audio.GenerateNoise(audio.TVNoise, n+numChannels, sampleRate, noise)
			scale := tvRMS / math.Max(rmsOf(base), 1e-12)
			for ch := range chans {
				for i := 0; i < n; i++ {
					// One source, a sample of spread across the array.
					chans[ch] = append(chans[ch], scale*base[i+ch])
				}
			}
		}
		amb.appendTo(chans, gap(0.3))
		for u, cp := range caps {
			rec := streamRecs[si][u]
			start := len(chans[0])
			n := rec.Len()
			for ch := range chans {
				chans[ch] = append(chans[ch], rec.Channels[ch]...)
			}
			amb.appendTo(chans, (chunkSamples-n%chunkSamples)%chunkSamples)
			c.Utterances = append(c.Utterances, utterance{Stream: si, Start: start, End: start + n, Label: cp.label, Accept: cp.accept})
			// Between words: TV noise every other gap, then room ambient
			// long enough for the energy gate's hangover to expire.
			if u%2 == 0 {
				tv(gap(0.2 + 0.2*rng.Float64()))
			}
			amb.appendTo(chans, gap(0.5))
		}
		rec := &audio.Recording{SampleRate: sampleRate, Channels: chans}
		name := fmt.Sprintf("stream%d.wav", si)
		if err := writeWAV(filepath.Join(dir, name), rec); err != nil {
			return err
		}
		c.Streams = append(c.Streams, name)
		streamLens = append(streamLens, rec.Len())
	}
	c.Ops = roundRobin(streamLens)
	return nil
}

func rmsOf(x []float64) float64 {
	var acc float64
	for _, v := range x {
		acc += v * v
	}
	return math.Sqrt(acc / float64(len(x)))
}

// loadCorpus returns the cached corpus for (workload, seed), rendering
// it first when absent, and decodes its audio into memory.
func loadCorpus(cacheDir, workload string, seed uint64) (*corpus, error) {
	dir := filepath.Join(cacheDir, fmt.Sprintf("corpus-v%d", corpusFormat), fmt.Sprintf("%s-%d", workload, seed))
	var c *corpus
	if b, err := os.ReadFile(filepath.Join(dir, "manifest.json")); err == nil {
		c = &corpus{}
		if err := json.Unmarshal(b, c); err != nil {
			return nil, fmt.Errorf("corpus manifest: %w", err)
		}
		c.dir = dir
	} else {
		tmp := dir + ".tmp"
		_ = os.RemoveAll(tmp)
		if c, err = buildCorpus(workload, seed, tmp); err != nil {
			return nil, err
		}
		_ = os.RemoveAll(dir)
		if err := os.Rename(tmp, dir); err != nil {
			return nil, err
		}
		c.dir = dir
	}
	c.recs = map[string]*audio.Recording{}
	c.raw = map[string][]byte{}
	for _, o := range c.Ops {
		if o.Kind != opWake || c.recs[o.WAV] != nil {
			continue
		}
		rec, raw, err := readWAVFile(c.path(o.WAV))
		if err != nil {
			return nil, err
		}
		c.recs[o.WAV], c.raw[o.WAV] = rec, raw
	}
	for _, name := range c.Streams {
		rec, raw, err := readWAVFile(c.path(name))
		if err != nil {
			return nil, err
		}
		c.streams = append(c.streams, rec)
		c.raw[name] = raw
	}
	return c, nil
}

func (c *corpus) path(name string) string { return filepath.Join(c.dir, name) }

func readWAVFile(path string) (*audio.Recording, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rec, err := audio.ReadWAVLimit(bytes.NewReader(raw), 0)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, raw, nil
}

// chunk returns the 4×480 frame an opChunk pushes.
func (c *corpus) chunk(o op) [][]float64 {
	rec := c.streams[o.Stream]
	frame := make([][]float64, len(rec.Channels))
	for ch, x := range rec.Channels {
		frame[ch] = x[o.Offset : o.Offset+chunkSamples]
	}
	return frame
}

// utteranceAt returns the embedded utterance a candidate pushed at
// chunk o covers — the one whose midpoint lies inside the 1.5 s window
// ending with the chunk — or -1.
func (c *corpus) utteranceAt(o op) int {
	end := o.Offset + chunkSamples
	start := end - int(1.5*sampleRate)
	for i, u := range c.Utterances {
		mid := (u.Start + u.End) / 2
		if u.Stream == o.Stream && mid >= start && mid < end {
			return i
		}
	}
	return -1
}
