package mic

import (
	"math"
	"math/rand/v2"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/geom"
	"headtalk/internal/room"
	"headtalk/internal/speech"
)

// crossCorrelate returns the biased cross-correlation of a and b at
// lags -maxLag..+maxLag (2*maxLag+1 values, lag 0 at index maxLag):
// r[k] = sum_n a[n+k]*b[n]. Positive lag means a leads b.
func crossCorrelate(a, b []float64, maxLag int) []float64 {
	out := make([]float64, 2*maxLag+1)
	for k := -maxLag; k <= maxLag; k++ {
		var acc float64
		for n := 0; n < len(b); n++ {
			i := n + k
			if i < 0 || i >= len(a) {
				continue
			}
			acc += a[i] * b[n]
		}
		out[k+maxLag] = acc
	}
	return out
}

func TestCrossCorrelateDelayDetection(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := 1000
	const delay = 7
	a := make([]float64, n)
	b := make([]float64, n)
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	copy(a[delay:], src[:n-delay]) // a = src delayed by 7
	copy(b, src)
	r := crossCorrelate(a, b, 10)
	// a[n+k]=src[n+k-delay] matches b[n]=src[n] when k=+delay.
	if peak := dsp.ArgMax(r) - 10; peak != delay {
		t.Fatalf("correlation peak at lag %d, want %d", peak, delay)
	}
}

func TestDeviceGeometries(t *testing.T) {
	cases := []struct {
		array    *Array
		channels int
		orthoCM  float64
	}{
		{DeviceD1(), 7, 8.5},
		{DeviceD2(), 6, 9.0},
		{DeviceD3(), 4, 6.5},
	}
	for _, c := range cases {
		if c.array.Channels() != c.channels {
			t.Errorf("%s: %d channels, want %d", c.array.DeviceID, c.array.Channels(), c.channels)
		}
		if math.Abs(c.array.OrthogonalDist*100-c.orthoCM) > 1e-9 {
			t.Errorf("%s: orthogonal distance %g cm", c.array.DeviceID, c.array.OrthogonalDist*100)
		}
		// Verify the opposite-mic distance actually matches the spec
		// for circular layouts (skip D1's center mic at index 0).
		pos := c.array.Positions
		start := 0
		if c.array.DeviceID == "D1" {
			start = 1
		}
		n := len(pos) - start
		if n%2 == 0 {
			a := pos[start]
			b := pos[start+n/2]
			if d := a.Dist(b); math.Abs(d-c.array.OrthogonalDist) > 1e-9 {
				t.Errorf("%s: opposite-mic distance %g m, want %g", c.array.DeviceID, d, c.array.OrthogonalDist)
			}
		}
	}
}

func TestMaxDelaySamplesMatchPaper(t *testing.T) {
	// Paper §III-B3: ±12, ±13, ±10 samples at 48 kHz for D1/D2/D3
	// (window sizes 25, 27, 21).
	if got := DeviceD1().MaxDelaySamples(48000, 340); got != 12 {
		t.Errorf("D1 max delay %d, want 12", got)
	}
	if got := DeviceD2().MaxDelaySamples(48000, 340); got != 13 {
		t.Errorf("D2 max delay %d, want 13", got)
	}
	if got := DeviceD3().MaxDelaySamples(48000, 340); got != 10 {
		t.Errorf("D3 max delay %d, want 10", got)
	}
}

func TestDeviceByID(t *testing.T) {
	for _, id := range []string{"D1", "D2", "D3"} {
		a, err := DeviceByID(id)
		if err != nil || a.DeviceID != id {
			t.Errorf("DeviceByID(%s) = %v, %v", id, a, err)
		}
	}
	if _, err := DeviceByID("D9"); err == nil {
		t.Error("expected error for unknown device")
	}
}

func TestDefaultSubsets(t *testing.T) {
	if got := DeviceD1().DefaultSubset(); len(got) != 4 {
		t.Errorf("D1 subset %v", got)
	}
	if got := DeviceD2().DefaultSubset(); len(got) != 4 {
		t.Errorf("D2 subset %v", got)
	}
	if got := DeviceD3().DefaultSubset(); len(got) != 4 {
		t.Errorf("D3 subset %v", got)
	}
	for _, a := range Devices() {
		for _, i := range a.DefaultSubset() {
			if i < 0 || i >= a.Channels() {
				t.Errorf("%s: subset index %d out of range", a.DeviceID, i)
			}
		}
	}
}

func TestPlace(t *testing.T) {
	a := DeviceD3()
	placed := a.Place(geom.Vec3{X: 1, Y: 2, Z: 0.74})
	if len(placed) != 4 {
		t.Fatal("wrong channel count")
	}
	for i, p := range placed {
		rel := p.Sub(geom.Vec3{X: 1, Y: 2, Z: 0.74})
		if rel.Dist(a.Positions[i]) > 1e-12 {
			t.Errorf("mic %d misplaced", i)
		}
	}
}

// testScene builds a quiet lab scene around D3.
func testScene(tailTaps int) (*Scene, *room.Simulator) {
	r := room.LabRoom()
	sim := room.NewSimulator(r)
	sim.TailTaps = tailTaps
	return &Scene{
		Sim:      sim,
		Array:    DeviceD3(),
		ArrayPos: geom.Vec3{X: 1, Y: 2.1, Z: 0.74},
	}, sim
}

func testUtterance(sim *room.Simulator, seed uint64) *Utterance {
	rng := rand.New(rand.NewPCG(seed, 1))
	buf := speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), 48000, rng)
	return PrepareUtterance(buf, sim.Bands)
}

func TestCaptureShape(t *testing.T) {
	scene, sim := testScene(16)
	utt := testUtterance(sim, 1)
	rng := rand.New(rand.NewPCG(2, 2))
	src := room.Source{Pos: geom.Vec3{X: 4, Y: 2.1, Z: 1.65}, Azimuth: 180}
	rec := scene.Capture(src, utt, 70, rng)
	if len(rec.Channels) != 4 {
		t.Fatalf("%d channels", len(rec.Channels))
	}
	if rec.Len() != utt.Length+sim.MaxDelaySamples() {
		t.Errorf("capture length %d, want %d", rec.Len(), utt.Length+sim.MaxDelaySamples())
	}
	if rec.SampleRate != 48000 {
		t.Errorf("sample rate %g", rec.SampleRate)
	}
	for i, ch := range rec.Channels {
		if dsp.RMS(ch) == 0 {
			t.Errorf("channel %d silent", i)
		}
	}
}

func TestCaptureSPLCalibration(t *testing.T) {
	// At 1 m on-axis with no noise and no reverb, the captured level
	// should be close to the requested SPL.
	scene, sim := testScene(-1)
	scene.DisableSelfNoise = true
	sim.ImageOrder = 0
	utt := testUtterance(sim, 3)
	rng := rand.New(rand.NewPCG(4, 4))
	src := room.Source{
		Pos:     scene.ArrayPos.Add(geom.Vec3{X: 1, Z: 0.0}),
		Azimuth: 180,
		Dir:     room.OmniDirectivity{},
	}
	rec := scene.Capture(src, utt, 70, rng)
	got := 70 + 20*math.Log10(dsp.RMS(rec.Channels[0][:utt.Length])/audio.SPLToRMS(70))
	if math.Abs(got-70) > 2 {
		t.Errorf("captured level %g dB SPL, want ~70", got)
	}
}

func TestCaptureDistanceLaw(t *testing.T) {
	scene, sim := testScene(-1)
	scene.DisableSelfNoise = true
	sim.ImageOrder = 0
	utt := testUtterance(sim, 5)
	rng := rand.New(rand.NewPCG(6, 6))
	level := func(d float64) float64 {
		src := room.Source{
			Pos:     scene.ArrayPos.Add(geom.Vec3{X: d}),
			Azimuth: 180,
			Dir:     room.OmniDirectivity{},
		}
		rec := scene.Capture(src, utt, 70, rng)
		return dsp.RMS(rec.Channels[0])
	}
	near := level(1)
	far := level(2)
	if ratio := near / far; math.Abs(ratio-2) > 0.25 {
		t.Errorf("1m/2m level ratio %g, want ~2 (1/d law)", ratio)
	}
}

func TestCaptureInterChannelDelay(t *testing.T) {
	// A source along +X reaches the +X microphone first; the
	// cross-correlation peak between opposite mics must match the
	// geometric delay.
	scene, sim := testScene(-1)
	scene.DisableSelfNoise = true
	sim.ImageOrder = 0
	utt := testUtterance(sim, 7)
	rng := rand.New(rand.NewPCG(8, 8))
	src := room.Source{
		Pos:     scene.ArrayPos.Add(geom.Vec3{X: 3}),
		Azimuth: 180,
		Dir:     room.OmniDirectivity{},
	}
	rec := scene.Capture(src, utt, 70, rng)
	// D3 mic 0 is at +X, mic 2 at -X; distance 6.5 cm => delay
	// ~9.2 samples at 48 kHz.
	r := crossCorrelate(rec.Channels[0], rec.Channels[2], 15)
	peak := dsp.ArgMax(r) - 15
	// Channel 0 leads, so channel0[n] ≈ channel2[n + delay]:
	// r[k] = Σ ch0[n+k]·ch2[n] peaks at k = -delay.
	wantDelay := 0.065 / 340 * 48000
	if math.Abs(float64(peak)+wantDelay) > 1.5 {
		t.Errorf("inter-channel delay peak at %d, want ~%.1f", peak, -wantDelay)
	}
}

func TestCaptureSelfNoiseSNR(t *testing.T) {
	scene, sim := testScene(-1)
	sim.ImageOrder = 0
	utt := testUtterance(sim, 9)
	src := room.Source{
		Pos:     scene.ArrayPos.Add(geom.Vec3{X: 1}),
		Azimuth: 180,
		Dir:     room.OmniDirectivity{},
	}
	clean := scene.Capture(src, utt, 70, rand.New(rand.NewPCG(10, 10)))
	scene.DisableSelfNoise = true
	quiet := scene.Capture(src, utt, 70, rand.New(rand.NewPCG(10, 10)))
	// Noise = difference; SNR should approximate the device spec.
	noise := make([]float64, clean.Len())
	for i := range noise {
		noise[i] = clean.Channels[0][i] - quiet.Channels[0][i]
	}
	snr := 20 * math.Log10(dsp.RMS(quiet.Channels[0])/dsp.RMS(noise))
	if math.Abs(snr-DeviceD3().SelfNoiseSNRdB) > 2 {
		t.Errorf("self-noise SNR %g dB, want ~%g", snr, DeviceD3().SelfNoiseSNRdB)
	}
}

func TestCaptureAmbientNoiseLevel(t *testing.T) {
	scene, sim := testScene(-1)
	scene.DisableSelfNoise = true
	scene.Ambients = []AmbientNoise{{Kind: audio.WhiteNoise, SPL: 45}}
	utt := testUtterance(sim, 11)
	// Capture silence (gain 0 source far away at tiny SPL) to measure
	// ambient level alone.
	src := room.Source{Pos: scene.ArrayPos.Add(geom.Vec3{X: 3}), Azimuth: 0}
	rec := scene.Capture(src, utt, 1, rand.New(rand.NewPCG(12, 12)))
	got := 45 + 20*math.Log10(dsp.RMS(rec.Channels[0])/audio.SPLToRMS(45))
	if math.Abs(got-45) > 2.5 {
		t.Errorf("ambient level %g dB SPL, want ~45", got)
	}
}

func TestPrepareUtterance(t *testing.T) {
	sim := room.NewSimulator(room.LabRoom())
	utt := testUtterance(sim, 13)
	if len(utt.Bands) != len(sim.Bands) {
		t.Errorf("%d bands, want %d", len(utt.Bands), len(sim.Bands))
	}
	if utt.RMS <= 0 {
		t.Error("utterance RMS not recorded")
	}
	if utt.Length == 0 {
		t.Error("zero-length utterance")
	}
}

func TestCaptureMovingShapeAndMotion(t *testing.T) {
	scene, sim := testScene(16)
	utt := testUtterance(sim, 21)
	rng := rand.New(rand.NewPCG(22, 22))
	start := room.Source{Pos: scene.ArrayPos.Add(geom.Vec3{X: 1}), Azimuth: 180, Dir: room.OmniDirectivity{}}
	end := room.Source{Pos: scene.ArrayPos.Add(geom.Vec3{X: 4}), Azimuth: 180, Dir: room.OmniDirectivity{}}
	rec := scene.CaptureMoving(start, end, utt, 70, 5, rng)
	if rec.Len() != utt.Length+sim.MaxDelaySamples() {
		t.Fatalf("moving capture length %d", rec.Len())
	}
	// The source recedes (1 m -> 4 m), so the early part must be
	// louder than the late part.
	n := rec.Len()
	head := dsp.RMS(rec.Channels[0][:n/4])
	tail := dsp.RMS(rec.Channels[0][3*n/4:])
	if head <= tail*1.5 {
		t.Errorf("receding source should decay: head %g vs tail %g", head, tail)
	}
	// segments <= 1 degenerates to the static capture.
	static := scene.CaptureMoving(start, end, utt, 70, 1, rand.New(rand.NewPCG(23, 23)))
	direct := scene.Capture(start, utt, 70, rand.New(rand.NewPCG(23, 23)))
	for i := range static.Channels[0] {
		if static.Channels[0][i] != direct.Channels[0][i] {
			t.Fatal("segments=1 should match static capture")
		}
	}
}
