package dataset

import (
	"math"
	"sync"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/dsp"
	"headtalk/internal/geom"
	"headtalk/internal/mic"
)

func TestLocationLabel(t *testing.T) {
	cases := []struct {
		radial, dist float64
		want         string
	}{
		{-15, 1, "L1"}, {0, 3, "M3"}, {15, 5, "R5"},
	}
	for _, c := range cases {
		if got := LocationLabel(c.radial, c.dist); got != c.want {
			t.Errorf("LocationLabel(%g, %g) = %s, want %s", c.radial, c.dist, got, c.want)
		}
	}
}

func TestConditionDefaults(t *testing.T) {
	c := Condition{}.withDefaults()
	if c.Room != "lab" || c.Device != "D2" || c.Word != "Computer" || c.Session != 1 ||
		c.Distance != 3 || c.Rep != 1 || c.SPL != 70 || c.Placement != "A" {
		t.Errorf("defaults %+v", c)
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{AngleDeg: 90, Replay: "Sony SRS-X5"}
	s := c.String()
	if s == "" {
		t.Fatal("empty condition string")
	}
	if want := "replay:Sony SRS-X5"; !contains(s, want) {
		t.Errorf("condition string %q missing %q", s, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDevicePlacements(t *testing.T) {
	for _, tc := range []struct {
		room, placement string
		wantZ           float64
	}{
		{"lab", "A", 0.74}, {"lab", "B", 0.45}, {"lab", "C", 0.75}, {"home", "A", 0.83},
	} {
		spec, err := devicePlacement(tc.room, tc.placement, false)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(spec.pos.Z-tc.wantZ) > 1e-9 {
			t.Errorf("%s/%s height %g, want %g", tc.room, tc.placement, spec.pos.Z, tc.wantZ)
		}
	}
	raised, err := devicePlacement("lab", "A", true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(raised.pos.Z-0.888) > 1e-9 {
		t.Errorf("raised height %g, want 0.888", raised.pos.Z)
	}
	if _, err := devicePlacement("lab", "Z", false); err == nil {
		t.Error("expected error for unknown placement")
	}
	if _, err := devicePlacement("home", "B", false); err == nil {
		t.Error("expected error for home placement B")
	}
	if _, err := devicePlacement("garage", "A", false); err == nil {
		t.Error("expected error for unknown room")
	}
}

func TestSpeakerPositionsInsideRooms(t *testing.T) {
	// Every grid location in both rooms must fall inside the room.
	rooms := map[string]geom.Vec3{
		"lab":  {X: 6.10, Y: 4.27, Z: 3.05},
		"home": {X: 10.06, Y: 3.05, Z: 2.44},
	}
	for roomName, dims := range rooms {
		spec, err := devicePlacement(roomName, "A", false)
		if err != nil {
			t.Fatal(err)
		}
		for _, rad := range Radials {
			for _, dist := range Distances {
				c := Condition{Room: roomName, RadialDeg: rad, Distance: dist}.withDefaults()
				p := speakerPosition(spec, c)
				if p.X < 0 || p.X > dims.X || p.Y < 0 || p.Y > dims.Y || p.Z < 0 || p.Z > dims.Z {
					t.Errorf("%s %s: speaker at %+v outside room %+v", roomName, c.Location(), p, dims)
				}
			}
		}
	}
}

func TestSpeakerPositionPosture(t *testing.T) {
	spec, err := devicePlacement("lab", "A", false)
	if err != nil {
		t.Fatal(err)
	}
	standing := speakerPosition(spec, Condition{Distance: 3}.withDefaults())
	sitting := speakerPosition(spec, Condition{Distance: 3, Posture: Sitting}.withDefaults())
	if standing.Z <= sitting.Z {
		t.Error("standing mouth should be higher than sitting")
	}
	if math.Abs(standing.Z-1.65) > 1e-9 || math.Abs(sitting.Z-1.15) > 1e-9 {
		t.Errorf("mouth heights %g / %g", standing.Z, sitting.Z)
	}
}

func TestDatasetCountsSmall(t *testing.T) {
	// Reduced-scale counts: every axis retained, grid reduced to M
	// column with 1 repetition.
	if got := len(Dataset1(ScaleSmall)); got != 2*3*3*2*3*14 {
		t.Errorf("Dataset1 small = %d", got)
	}
	if got := len(Dataset2(ScaleSmall)); got != 2*2*3*14 {
		t.Errorf("Dataset2 small = %d", got)
	}
	if got := len(Dataset3(ScaleSmall)); got != 2*2*3*14 {
		t.Errorf("Dataset3 small = %d", got)
	}
	if got := len(Dataset4(ScaleSmall)); got != 2*3*14 {
		t.Errorf("Dataset4 small = %d", got)
	}
	if got := len(Dataset5(ScaleSmall)); got != 3*14 {
		t.Errorf("Dataset5 small = %d", got)
	}
	if got := len(Dataset6(ScaleSmall)); got != 2*3*14 {
		t.Errorf("Dataset6 small = %d", got)
	}
	if got := len(Dataset7(ScaleSmall)); got != 3*3*14 {
		t.Errorf("Dataset7 small = %d", got)
	}
	if got := len(Dataset8(ScaleSmall)); got != 10*3*8*2 {
		t.Errorf("Dataset8 small = %d", got)
	}
}

func TestDatasetCountsPaper(t *testing.T) {
	// Table II counts.
	if got := len(Dataset1(ScalePaper)); got != 9072 {
		t.Errorf("Dataset1 paper = %d, want 9072", got)
	}
	if got := len(Dataset2(ScalePaper)); got != 1008 {
		t.Errorf("Dataset2 paper = %d, want 1008", got)
	}
	if got := len(Dataset3(ScalePaper)); got != 336 {
		t.Errorf("Dataset3 paper = %d, want 336", got)
	}
	if got := len(Dataset4(ScalePaper)); got != 168 {
		t.Errorf("Dataset4 paper = %d, want 168", got)
	}
	if got := len(Dataset5(ScalePaper)); got != 84 {
		t.Errorf("Dataset5 paper = %d, want 84", got)
	}
	if got := len(Dataset6(ScalePaper)); got != 168 {
		t.Errorf("Dataset6 paper = %d, want 168", got)
	}
	if got := len(Dataset7(ScalePaper)); got != 252 {
		t.Errorf("Dataset7 paper = %d, want 252", got)
	}
	if got := len(Dataset8(ScalePaper)); got != 1440 {
		t.Errorf("Dataset8 paper = %d, want 1440", got)
	}
}

func TestSpoofCorpusBalanced(t *testing.T) {
	conds := SpoofCorpus(ScaleSmall)
	human, spoof := 0, 0
	for _, c := range conds {
		if LivenessLabel(c) == 1 {
			human++
		} else {
			spoof++
		}
	}
	if human != spoof {
		t.Errorf("spoof corpus imbalance: %d human vs %d spoof", human, spoof)
	}
	// Pretraining users are disjoint from Dataset-8 participants.
	for _, c := range conds {
		if c.UserID <= 10 {
			t.Fatalf("spoof corpus uses evaluation user %d", c.UserID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := NewGenerator(7)
	g2 := NewGenerator(7)
	c := Condition{AngleDeg: 30}
	a, err := g1.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Features) != len(b.Features) {
		t.Fatal("feature length mismatch")
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatalf("non-deterministic feature %d", i)
		}
	}
}

// A Generator is documented safe for concurrent use: goroutines
// generating the same condition on one generator share its cached
// band-pass design and must each get the vectors a sequential run
// gets, bit for bit. Run under -race this also proves they share no
// filter state.
func TestGeneratorConcurrentMatchesSequential(t *testing.T) {
	c := Condition{AngleDeg: 30}
	seq := NewGenerator(5)
	seq.KeepWaveforms = true
	want, err := seq.Generate(c)
	if err != nil {
		t.Fatal(err)
	}

	shared := NewGenerator(5)
	shared.KeepWaveforms = true
	const workers = 4
	got := make([]*Sample, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = shared.Generate(c)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for _, pair := range []struct {
			name      string
			want, got []float64
		}{
			{"features", want.Features, got[w].Features},
			{"waveform", want.Waveform, got[w].Waveform},
		} {
			if len(pair.got) != len(pair.want) {
				t.Fatalf("worker %d %s: %d values, want %d", w, pair.name, len(pair.got), len(pair.want))
			}
			for i := range pair.want {
				if math.Float64bits(pair.got[i]) != math.Float64bits(pair.want[i]) {
					t.Fatalf("worker %d %s[%d]: %g, want %g", w, pair.name, i, pair.got[i], pair.want[i])
				}
			}
		}
	}
}

func TestGenerateVariesAcrossRepsAndSeeds(t *testing.T) {
	g := NewGenerator(7)
	a, err := g.Generate(Condition{AngleDeg: 30, Rep: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(Condition{AngleDeg: 30, Rep: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Features {
		if a.Features[i] == b.Features[i] {
			same++
		}
	}
	if same == len(a.Features) {
		t.Error("different repetitions produced identical features")
	}
	gOther := NewGenerator(8)
	c, err := gOther.Generate(Condition{AngleDeg: 30, Rep: 1})
	if err != nil {
		t.Fatal(err)
	}
	same = 0
	for i := range a.Features {
		if a.Features[i] == c.Features[i] {
			same++
		}
	}
	if same == len(a.Features) {
		t.Error("different generator seeds produced identical features")
	}
}

func TestGenerateKeepWaveforms(t *testing.T) {
	g := NewGenerator(9)
	g.KeepWaveforms = true
	s, err := g.Generate(Condition{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Waveform) == 0 {
		t.Fatal("waveform not kept")
	}
	if dsp.RMS(s.Waveform) == 0 {
		t.Error("silent waveform")
	}
	g2 := NewGenerator(9)
	s2, err := g2.Generate(Condition{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Waveform != nil {
		t.Error("waveform kept without KeepWaveforms")
	}
}

func TestGenerateErrors(t *testing.T) {
	g := NewGenerator(1)
	if _, err := g.Generate(Condition{Device: "D9"}); err == nil {
		t.Error("expected error for unknown device")
	}
	if _, err := g.Generate(Condition{Room: "garage"}); err == nil {
		t.Error("expected error for unknown room")
	}
	if _, err := g.Generate(Condition{Word: "Alexa"}); err == nil {
		t.Error("expected error for unknown wake word")
	}
	if _, err := g.Generate(Condition{Obstacle: "wall"}); err == nil {
		t.Error("expected error for unknown obstacle")
	}
	if _, err := g.Generate(Condition{Replay: "boombox"}); err == nil {
		t.Error("expected error for unknown replay profile")
	}
}

func TestCaptureRecordingShape(t *testing.T) {
	g := NewGenerator(11)
	rec, err := CaptureRecording(g, Condition{Device: "D3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Channels) != 4 {
		t.Errorf("%d channels, want the D3 default subset of 4", len(rec.Channels))
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

func TestGenerateSubsetsConsistency(t *testing.T) {
	g := NewGenerator(13)
	subsets := [][]int{{0, 1}, {0, 1, 3, 4}}
	feats, err := g.GenerateSubsets(Condition{}, subsets)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 2 {
		t.Fatalf("%d feature sets", len(feats))
	}
	// 2 channels: 1 pair => 1×27+1+5+3+5+61 = 102 dims; 4 channels =>
	// 267 dims.
	if len(feats[0]) != 102 {
		t.Errorf("2-mic feature length %d, want 102", len(feats[0]))
	}
	if len(feats[1]) != 267 {
		t.Errorf("4-mic feature length %d, want 267", len(feats[1]))
	}
	if _, err := g.GenerateSubsets(Condition{}, [][]int{{0, 99}}); err == nil {
		t.Error("expected error for out-of-range channel")
	}
}

func TestTemporalDriftChangesRoom(t *testing.T) {
	g := NewGenerator(15)
	now, err := g.roomFor(Condition{Room: "lab"})
	if err != nil {
		t.Fatal(err)
	}
	month, err := g.roomFor(Condition{Room: "lab", Temporal: TemporalMonth})
	if err != nil {
		t.Fatal(err)
	}
	if now.EyringT60(1000) == month.EyringT60(1000) {
		t.Error("temporal drift did not change the room acoustics")
	}
}

func TestFeatureConfigFor(t *testing.T) {
	d2, err := micDeviceByID("D2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FeatureConfigFor(d2)
	if cfg.MaxLag != 13 {
		t.Errorf("D2 MaxLag %d, want 13", cfg.MaxLag)
	}
	if !cfg.UsePHAT {
		t.Error("PHAT should default on")
	}
}

func TestLivenessLabel(t *testing.T) {
	if LivenessLabel(Condition{}) != 1 {
		t.Error("live condition should label 1")
	}
	if LivenessLabel(Condition{Replay: "Sony SRS-X5"}) != 0 {
		t.Error("replay condition should label 0")
	}
}

func TestDefaultAmbientLevels(t *testing.T) {
	lab := defaultAmbient("lab")
	home := defaultAmbient("home")
	if lab.SPL != 33 || home.SPL != 43 {
		t.Errorf("ambient levels %g / %g, want 33 / 43", lab.SPL, home.SPL)
	}
	if lab.Kind != audio.PinkNoise {
		t.Error("default ambient should be pink")
	}
}

// micDeviceByID avoids importing mic with a name collision in tests.
func micDeviceByID(id string) (*mic.Array, error) { return mic.DeviceByID(id) }
