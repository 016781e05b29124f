package eval

import (
	"fmt"
	"math"
	"math/rand/v2"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/geom"
	"headtalk/internal/mic"
	"headtalk/internal/room"
	"headtalk/internal/speech"
	"headtalk/internal/srp"
)

// Fig3Spectra reproduces Fig. 3: band-energy profiles of the utterance
// "Computer" as spoken live and as replayed through the Sony
// loudspeaker and the Galaxy S21 phone. The table reports normalized
// mean magnitude per octave-ish band; the live voice shows exponential
// decay above 4 kHz while the replays are lower and flatter there.
func (r *Runner) Fig3Spectra() (*Table, error) {
	const fs = 48000
	rng := rand.New(rand.NewPCG(r.opts.Seed, 0xF13))
	dry := speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), fs, rng)
	sources := []struct {
		name string
		buf  *audio.Buffer
	}{
		{"live human", dry},
		{"Sony SRS-X5 replay", speech.RenderMechanical(dry, speech.SonySRSX5, rng)},
		{"Galaxy S21 replay", speech.RenderMechanical(dry, speech.GalaxyS21, rng)},
	}
	bands := []struct {
		lo, hi float64
	}{
		{100, 500}, {500, 1000}, {1000, 2000}, {2000, 4000},
		{4000, 8000}, {8000, 16000},
	}
	t := &Table{
		ID:     "fig3",
		Title:  "Fig. 3: spectral profile of 'Computer' by source (normalized band magnitude, dB)",
		Header: []string{"Band", "Live human", "Sony SRS-X5", "Galaxy S21"},
	}
	profiles := make([][]float64, len(sources))
	for si, src := range sources {
		spec := dsp.HalfSpectrum(src.buf.Samples)
		vals := make([]float64, len(bands))
		for bi, b := range bands {
			vals[bi] = dsp.BandEnergy(spec, len(src.buf.Samples), fs, b.lo, b.hi)
		}
		// Normalize to the strongest band so the shapes compare.
		peak := dsp.Max(vals)
		for bi := range vals {
			if peak > 0 {
				vals[bi] = 20 * math.Log10(vals[bi]/peak+1e-12)
			}
		}
		profiles[si] = vals
	}
	for bi, b := range bands {
		t.AddRow(
			fmt.Sprintf("%.0f–%.0f Hz", b.lo, b.hi),
			fmt.Sprintf("%.1f dB", profiles[0][bi]),
			fmt.Sprintf("%.1f dB", profiles[1][bi]),
			fmt.Sprintf("%.1f dB", profiles[2][bi]),
		)
	}
	t.AddNote("paper Fig. 3: live speech keeps high-frequency content above 4 kHz with exponential decay; replays lose it")
	return t, nil
}

// Fig6Curves reproduces Fig. 6: the GCC between Mic1 and Mic2 of D3
// and the weighted SRP, for a speaker at 3 m facing 0°, 90° and 180°.
func (r *Runner) Fig6Curves() (*Table, error) {
	const fs = 48000
	rng := rand.New(rand.NewPCG(r.opts.Seed, 0xF6))
	labRoom := room.LabRoom()
	sim := room.NewSimulator(labRoom)
	sim.TailTaps = 32
	array := mic.DeviceD3()
	devPos := geom.Vec3{X: 0.40, Y: 2.10, Z: 0.74}
	scene := &mic.Scene{
		Sim: sim, Array: array, ArrayPos: devPos,
		Ambients: []mic.AmbientNoise{{Kind: audio.PinkNoise, SPL: 33}},
	}
	maxLag := array.MaxDelaySamples(fs, labRoom.C())

	angles := []float64{0, 90, 180}
	gccCurves := make([][]float64, len(angles))
	srpCurves := make([][]float64, len(angles))
	for ai, angle := range angles {
		dry := speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), fs, rng)
		utt := mic.PrepareUtterance(dry, sim.Bands)
		pos := geom.Vec3{X: devPos.X + 3, Y: devPos.Y, Z: 1.65}
		src := room.Source{
			Pos:     pos,
			Azimuth: geom.Azimuth(devPos.Sub(pos)) + angle,
			Dir:     room.HumanDirectivity{},
		}
		rec := scene.Capture(src, utt, 70, rng)
		// A workspace per angle: each angle's curves keep its pairs.
		var ws srp.Workspace
		pairs, err := ws.AllPairs(rec.Channels, srp.PairOptions{
			MaxLag: maxLag, PHAT: true, SampleRate: fs, BandLo: 100, BandHi: 8000,
		})
		if err != nil {
			return nil, fmt.Errorf("eval: fig6 at %g°: %w", angle, err)
		}
		gccCurves[ai] = pairs[0].R // Mic1–Mic2
		srpCurves[ai] = srp.SRP(pairs)
	}

	t := &Table{
		ID:     "fig6",
		Title:  "Fig. 6: GCC(Mic1,Mic2) and weighted SRP by lag, D3 at 3 m (0°/90°/180°)",
		Header: []string{"Lag (samples)", "GCC 0°", "GCC 90°", "GCC 180°", "SRP 0°", "SRP 90°", "SRP 180°"},
	}
	for k := 0; k < 2*maxLag+1; k++ {
		t.AddRow(
			fmt.Sprintf("%+d", k-maxLag),
			fmt.Sprintf("%.3f", gccCurves[0][k]),
			fmt.Sprintf("%.3f", gccCurves[1][k]),
			fmt.Sprintf("%.3f", gccCurves[2][k]),
			fmt.Sprintf("%.3f", srpCurves[0][k]),
			fmt.Sprintf("%.3f", srpCurves[1][k]),
			fmt.Sprintf("%.3f", srpCurves[2][k]),
		)
	}
	t.AddNote("paper Fig. 6: smaller facing angles yield higher GCC/SRP peaks; larger angles peak at shifted lags")
	return t, nil
}
