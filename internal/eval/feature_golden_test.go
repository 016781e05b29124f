package eval

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

	"headtalk/internal/dataset"
	"headtalk/internal/features"
	"headtalk/internal/geom"
	"headtalk/internal/mic"
	"headtalk/internal/room"
	"headtalk/internal/speech"
)

var update = flag.Bool("update", false, "rewrite testdata/features.golden from the current code")

// hashVector returns the FNV-64a hash of a vector's float64 bits, so a
// golden line moves when any bit of any element moves.
func hashVector(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestFeatureGolden pins the training path bit for bit: the feature
// vectors dataset.Generator produces for a few conditions on each
// device, under every feature-config variant the ablations use, the
// mic-count subsets, a kept waveform, and one vector from extractD2 on
// a scene capture. Enrollment and every experiment train on these
// vectors, so a change that moves one moves every trained model.
// Regenerate with `go test ./internal/eval -run FeatureGolden -update`
// only when a change is meant to move features.
func TestFeatureGolden(t *testing.T) {
	var buf bytes.Buffer
	line := func(name string, v []float64) {
		fmt.Fprintf(&buf, "%s n=%d hash=%016x\n", name, len(v), hashVector(v))
	}

	conds := []struct {
		name string
		c    dataset.Condition
	}{
		{"D1/lab/0", dataset.Condition{Device: "D1", AngleDeg: 0}},
		{"D1/home/135/replay", dataset.Condition{Device: "D1", Room: "home", AngleDeg: 135, Replay: "Smart TV"}},
		{"D2/lab/0", dataset.Condition{Device: "D2", AngleDeg: 0}},
		{"D2/lab/90/1m", dataset.Condition{Device: "D2", AngleDeg: 90, Distance: 1}},
		{"D3/lab/-45", dataset.Condition{Device: "D3", AngleDeg: -45}},
		{"D3/home/180/5m", dataset.Condition{Device: "D3", Room: "home", AngleDeg: 180, Distance: 5}},
	}
	variants := []struct {
		name string
		fn   func(features.Config) features.Config
	}{
		{"default", nil},
		{"no-phat", func(c features.Config) features.Config { c.UsePHAT = false; return c }},
		{"gcc-only", func(c features.Config) features.Config { c.GCCOnly = true; return c }},
		{"reverb-only", func(c features.Config) features.Config { c.DisableDirectivityFeatures = true; return c }},
		{"directivity-only", func(c features.Config) features.Config { c.DisableReverbFeatures = true; return c }},
		{"no-window", func(c features.Config) features.Config { c.AnalysisWindow = -1; return c }},
	}
	for _, v := range variants {
		g := dataset.NewGenerator(7)
		g.FeatureConfigFn = v.fn
		for i, tc := range conds {
			// The variants run on one condition per device; the default
			// config runs on all of them.
			if v.fn != nil && i%2 == 1 {
				continue
			}
			s, err := g.Generate(tc.c)
			if err != nil {
				t.Fatalf("%s %s: %v", v.name, tc.name, err)
			}
			line(v.name+" "+tc.name, s.Features)
		}
	}

	gw := dataset.NewGenerator(7)
	gw.KeepWaveforms = true
	s, err := gw.Generate(conds[2].c)
	if err != nil {
		t.Fatal(err)
	}
	line("waveform "+conds[2].name, s.Waveform)

	subsets, err := dataset.NewGenerator(7).GenerateSubsets(conds[2].c, [][]int{{0, 1, 3, 4}, {0, 2, 4}, {0, 1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range subsets {
		line(fmt.Sprintf("subset-%d %s", i, conds[2].name), v)
	}

	devPos := geom.Vec3{X: 0.40, Y: 2.10, Z: 0.74}
	scene := labScene(devPos, 32)
	rng := rand.New(rand.NewPCG(7, 0xF0))
	utt := mic.PrepareUtterance(speech.Synthesize(speech.WordComputer, speech.DefaultVoice(), 48000, rng), scene.Sim.Bands)
	pos := geom.Vec3{X: 3.40, Y: 2.10, Z: 1.65}
	src := room.Source{Pos: pos, Azimuth: geom.Azimuth(devPos.Sub(pos)), Dir: room.HumanDirectivity{}}
	feats, err := NewRunner(Options{Seed: 7}).extractD2(scene.Capture(src, utt, 70, rng))
	if err != nil {
		t.Fatal(err)
	}
	line("extractD2 lab/facing/3.0m", feats)

	path := filepath.Join("testdata", "features.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("features drifted from %s:\n--- want\n%s--- got\n%s", path, want, buf.Bytes())
	}
}
