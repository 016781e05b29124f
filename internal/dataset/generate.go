package dataset

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/features"
	"headtalk/internal/geom"
	"headtalk/internal/mic"
	"headtalk/internal/room"
	"headtalk/internal/speech"
)

// Sample is one generated corpus entry: the orientation feature vector
// for the captured, preprocessed recording, plus optionally the mono
// waveform for liveness experiments.
type Sample struct {
	Cond     Condition
	Features []float64
	// Waveform is the preprocessed mono capture downsampled to
	// 16 kHz; populated only when the Generator keeps waveforms.
	Waveform []float64
}

// Generator turns Conditions into Samples deterministically: the same
// (generator seed, condition) pair always yields the same sample.
// A Generator is safe for concurrent use.
type Generator struct {
	// Seed namespaces all randomness.
	Seed uint64
	// KeepWaveforms retains mono waveforms on samples (needed for
	// liveness experiments; off by default to save memory). Waveforms
	// are stored downsampled to 16 kHz, the liveness frontend's input
	// rate.
	KeepWaveforms bool
	// FeatureConfigFn, when set, rewrites the per-device feature
	// configuration before extraction (used by the PHAT and
	// feature-group ablations).
	FeatureConfigFn func(features.Config) features.Config
	// ImageOrder / TailTaps override simulator fidelity when > 0.
	ImageOrder int
	TailTaps   int
	// DisableDefaultAmbient turns off the per-room noise floor
	// (lab 33 dB / home 43 dB).
	DisableDefaultAmbient bool

	mu      sync.Mutex
	bpCache map[float64]*dsp.IIRFilter
}

// NewGenerator returns a generator with the default fidelity settings.
func NewGenerator(seed uint64) *Generator {
	return &Generator{Seed: seed}
}

// condRNG derives a deterministic RNG for a condition and purpose tag.
// The full condition struct is hashed: two conditions differing in ANY
// field (posture, ambient noise, placement, ...) must draw independent
// utterances and capture noise, otherwise a sensitivity experiment's
// test set would be a near-copy of the training captures.
func (g *Generator) condRNG(c Condition, tag string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%s", c, tag)
	return rand.New(rand.NewPCG(g.Seed, h.Sum64()))
}

// voiceFor returns the speaker voice for a condition: user 0 is the
// primary experimenter (a fixed voice with mild per-session and
// temporal drift), users >= 1 are drawn per-user.
func (g *Generator) voiceFor(c Condition) speech.VoiceProfile {
	var v speech.VoiceProfile
	if c.UserID == 0 {
		v = speech.DefaultVoice()
	} else {
		h := fnv.New64a()
		fmt.Fprintf(h, "user-%d", c.UserID)
		v = speech.RandomVoice(rand.New(rand.NewPCG(g.Seed, h.Sum64())))
	}
	// Session-to-session human variation: nobody says a wake word the
	// same way twice.
	rng := g.condRNG(c, "voice")
	v.BasePitch *= 1 + 0.03*rng.NormFloat64()
	v.Rate *= 1 + 0.04*rng.NormFloat64()
	// Temporal drift: weeks later the voice and delivery have moved a
	// little more (colds, mood, speaking style).
	switch c.Temporal {
	case TemporalWeek:
		v.BasePitch *= 1 + 0.05*rng.NormFloat64()
		v.Breathiness *= 1.3
		v.HighBandGain += 1.5 * rng.NormFloat64()
	case TemporalMonth:
		v.BasePitch *= 1 + 0.07*rng.NormFloat64()
		v.Rate *= 1 + 0.06*rng.NormFloat64()
		v.HighBandGain += 2.5 * rng.NormFloat64()
	}
	return v
}

// utteranceFor synthesizes the band-split dry utterance for a
// condition. Every condition gets its own synthesis draw — a human
// never says the wake word the same way twice, and training on varied
// utterances is what makes the classifier utterance-invariant. Replay
// conditions render the synthesized voice through the named
// loudspeaker chain first.
func (g *Generator) utteranceFor(c Condition, bands []room.Band) (*mic.Utterance, error) {
	word, ok := speech.WakeWordByName(c.Word)
	if !ok {
		return nil, fmt.Errorf("dataset: unknown wake word %q", c.Word)
	}
	voice := g.voiceFor(c)
	buf := speech.Synthesize(word, voice, 48000, g.condRNG(c, "synth"))
	if c.Replay != "" {
		profile, err := replayProfile(c.Replay)
		if err != nil {
			return nil, err
		}
		buf = speech.RenderMechanical(buf, profile, g.condRNG(c, "replay"))
	}
	return mic.PrepareUtterance(buf, bands), nil
}

func replayProfile(name string) (speech.LoudspeakerProfile, error) {
	for _, p := range speech.ReplayProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return speech.LoudspeakerProfile{}, fmt.Errorf("dataset: unknown replay profile %q", name)
}

// roomFor returns the (possibly temporally drifted) room model.
func (g *Generator) roomFor(c Condition) (room.Room, error) {
	var r room.Room
	switch c.Room {
	case "lab":
		r = room.LabRoom()
	case "home":
		r = room.HomeRoom()
	default:
		return r, fmt.Errorf("dataset: unknown room %q", c.Room)
	}
	// Temporal drift: furniture moves, doors open — the effective
	// absorption changes slightly, shifting the reverberation pattern
	// the model was trained on.
	drift := 0.0
	switch c.Temporal {
	case TemporalWeek:
		drift = 0.3
	case TemporalMonth:
		drift = 0.5
	}
	if drift > 0 {
		rng := g.condRNG(Condition{Room: c.Room, Temporal: c.Temporal}, "roomdrift")
		for w := range r.Walls {
			scale := 1 + drift*(2*rng.Float64()-1)
			m := r.Walls[w]
			alphas := make([]float64, len(m.Alphas))
			for i, a := range m.Alphas {
				v := a * scale
				if v > 0.95 {
					v = 0.95
				}
				if v < 0.01 {
					v = 0.01
				}
				alphas[i] = v
			}
			m.Alphas = alphas
			r.Walls[w] = m
		}
	}
	return r, nil
}

// defaultAmbient returns the room's noise floor (lab 33 dB SPL, home
// 43 dB SPL, pink-ish household spectrum).
func defaultAmbient(roomName string) mic.AmbientNoise {
	if roomName == "home" {
		return mic.AmbientNoise{Kind: audio.PinkNoise, SPL: 43}
	}
	return mic.AmbientNoise{Kind: audio.PinkNoise, SPL: 33}
}

// FeatureConfigFor returns the paper's feature configuration for a
// device (the ±0.25/0.27/0.2 ms GCC windows of §III-B3).
func FeatureConfigFor(array *mic.Array) features.Config {
	return features.DefaultConfig(array.MaxDelaySamples(48000, 340), 48000)
}

// Generate renders one sample.
func (g *Generator) Generate(c Condition) (*Sample, error) {
	c = c.withDefaults()
	array, err := mic.DeviceByID(c.Device)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c, err)
	}
	recording, err := g.capture(c, array)
	if err != nil {
		return nil, err
	}
	// Preprocessing: the paper's 5th-order Butterworth 100–16000 Hz,
	// applied to the device's default 4-microphone subset.
	s, _, err := g.finish(c, array, recording, [][]int{array.DefaultSubset()})
	return s, err
}

// capture renders the raw multi-channel recording for a condition.
func (g *Generator) capture(c Condition, array *mic.Array) (*audio.Recording, error) {
	roomModel, err := g.roomFor(c)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c, err)
	}
	sim := room.NewSimulator(roomModel)
	if g.ImageOrder > 0 {
		sim.ImageOrder = g.ImageOrder
	}
	if g.TailTaps > 0 {
		sim.TailTaps = g.TailTaps
	} else {
		sim.TailTaps = 32
	}
	switch c.Obstacle {
	case "":
	case "partial":
		sim.Obstruction = room.PartialBlock
	case "full":
		sim.Obstruction = room.FullBlock
	default:
		return nil, fmt.Errorf("dataset: %s: unknown obstacle %q", c, c.Obstacle)
	}

	placement, err := devicePlacement(c.Room, c.Placement, c.Raised)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c, err)
	}
	// Temporal drift also moves the device a little: weeks later the
	// speaker has been nudged along the shelf, which is part of why
	// aged models degrade (§IV-B9).
	if c.Temporal != "" {
		shift := 0.1
		if c.Temporal == TemporalMonth {
			shift = 0.2
		}
		prng := g.condRNG(Condition{Room: c.Room, Temporal: c.Temporal}, "placedrift")
		placement.pos.X += shift * prng.NormFloat64()
		placement.pos.Y += shift * prng.NormFloat64()
	}

	utt, err := g.utteranceFor(c, sim.Bands)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c, err)
	}

	// Source geometry with human placement error: position jitter of a
	// few centimeters, angle error of a couple of degrees (paper
	// §VI acknowledges angle error in collection).
	rng := g.condRNG(c, "capture")
	pos := speakerPosition(placement, c)
	pos.X += 0.04 * rng.NormFloat64()
	pos.Y += 0.04 * rng.NormFloat64()
	pos.Z += 0.02 * rng.NormFloat64()
	toDevice := geomAzimuth(placement.pos, pos)
	angleErr := 2 * rng.NormFloat64()
	src := room.Source{
		Pos:     pos,
		Azimuth: toDevice + c.AngleDeg + angleErr,
	}
	if c.Replay != "" {
		src.Dir = room.LoudspeakerDirectivity{}
	} else {
		src.Dir = room.HumanDirectivity{}
	}

	scene := &mic.Scene{
		Sim:      sim,
		Array:    array,
		ArrayPos: placement.pos,
	}
	if !g.DisableDefaultAmbient {
		scene.Ambients = append(scene.Ambients, defaultAmbient(c.Room))
	}
	if c.AmbientSPL > 0 {
		scene.Ambients = append(scene.Ambients, mic.AmbientNoise{Kind: c.Ambient, SPL: c.AmbientSPL})
	}

	spl := c.SPL + 1.0*rng.NormFloat64() // humans don't hold 70 dB exactly
	return scene.Capture(src, utt, spl, rng), nil
}

// CaptureRecording renders the raw (unpreprocessed) multi-channel
// capture for a condition, restricted to the device's default
// microphone subset — the input a live HeadTalk system would see from
// its array. Demos and examples feed this to core.System.ProcessWake,
// which runs its own preprocessing.
func CaptureRecording(g *Generator, c Condition) (*audio.Recording, error) {
	c = c.withDefaults()
	array, err := mic.DeviceByID(c.Device)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c, err)
	}
	rec, err := g.capture(c, array)
	if err != nil {
		return nil, err
	}
	return rec.Select(array.DefaultSubset())
}

// GenerateSubsets captures the condition once with every device
// channel and extracts one feature vector per microphone subset (the
// §IV-B6 mic-count experiment). It returns the per-subset feature
// vectors in order.
func (g *Generator) GenerateSubsets(c Condition, subsets [][]int) ([][]float64, error) {
	c = c.withDefaults()
	array, err := mic.DeviceByID(c.Device)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", c, err)
	}
	recording, err := g.capture(c, array)
	if err != nil {
		return nil, err
	}
	_, feats, err := g.finish(c, array, recording, subsets)
	return feats, err
}

// finish preprocesses a raw capture and extracts features for each
// channel subset. The returned Sample carries the first subset's
// features.
func (g *Generator) finish(c Condition, array *mic.Array, recording *audio.Recording, subsets [][]int) (*Sample, [][]float64, error) {
	allFeats, first, err := g.extract(array, recording, subsets)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset: %s: %w", c, err)
	}
	s := &Sample{Cond: c, Features: allFeats[0]}
	if g.KeepWaveforms {
		wav, werr := dsp.Resample(first.Mono(), first.SampleRate, 16000)
		if werr != nil {
			return nil, nil, fmt.Errorf("dataset: %s: downsampling waveform: %w", c, werr)
		}
		s.Waveform = wav
	}
	return s, allFeats, nil
}

// Extract band-passes a raw capture of array's channels and extracts
// the feature vector of the device's default microphone subset: the
// preprocessing every generated Sample goes through, for captures
// rendered outside the generator (moving speakers, multi-source
// scenes).
func (g *Generator) Extract(array *mic.Array, recording *audio.Recording) ([]float64, error) {
	feats, _, err := g.extract(array, recording, [][]int{array.DefaultSubset()})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return feats[0], nil
}

// extract runs the paper's 5th-order Butterworth 100–16000 Hz band-pass
// over every channel the subsets name (each once) and extracts one
// feature vector per subset with the device's feature configuration.
// It also returns the first subset's band-passed recording.
func (g *Generator) extract(array *mic.Array, recording *audio.Recording, subsets [][]int) ([][]float64, *audio.Recording, error) {
	bp, err := g.bandpass(recording.SampleRate)
	if err != nil {
		return nil, nil, err
	}
	filtered := make(map[int][]float64)
	channelFor := func(ci int) ([]float64, error) {
		if ch, ok := filtered[ci]; ok {
			return ch, nil
		}
		if ci < 0 || ci >= len(recording.Channels) {
			return nil, fmt.Errorf("channel %d out of range", ci)
		}
		ch := bp.Apply(recording.Channels[ci])
		filtered[ci] = ch
		return ch, nil
	}

	cfg := FeatureConfigFor(array)
	if g.FeatureConfigFn != nil {
		cfg = g.FeatureConfigFn(cfg)
	}
	allFeats := make([][]float64, 0, len(subsets))
	var first *audio.Recording
	for _, subset := range subsets {
		pre := &audio.Recording{SampleRate: recording.SampleRate}
		for _, ci := range subset {
			ch, cerr := channelFor(ci)
			if cerr != nil {
				return nil, nil, cerr
			}
			pre.Channels = append(pre.Channels, ch)
		}
		if first == nil {
			first = pre
		}
		feats, ferr := features.Extract(pre, cfg)
		if ferr != nil {
			return nil, nil, fmt.Errorf("extracting features: %w", ferr)
		}
		allFeats = append(allFeats, feats)
	}
	return allFeats, first, nil
}

// bandpass returns a private clone of the cached preprocessing filter
// for a sample rate. The design is computed once per rate; the clone
// gives each caller its own section state, because Apply resets and
// writes that state while filtering.
func (g *Generator) bandpass(fs float64) (*dsp.IIRFilter, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.bpCache == nil {
		g.bpCache = make(map[float64]*dsp.IIRFilter)
	}
	f, ok := g.bpCache[fs]
	if !ok {
		var err error
		f, err = dsp.NewButterworthBandPass(5, 100, 16000, fs)
		if err != nil {
			return nil, err
		}
		g.bpCache[fs] = f
	}
	return f.Clone(), nil
}

// geomAzimuth returns the azimuth of the direction from `from` toward
// `to` in the horizontal plane, in degrees.
func geomAzimuth(to, from geom.Vec3) float64 {
	return geom.Azimuth(to.Sub(from))
}
