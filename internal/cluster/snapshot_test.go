package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/features"
	"headtalk/internal/liveness"
	"headtalk/internal/ml"
	"headtalk/internal/orientation"
	"headtalk/internal/pool"
	"headtalk/internal/registry"
)

var update = flag.Bool("update", false, "rebuild the pinned snapshot envelopes in testdata/")

// pinFeatures is the feature geometry both pinned tenants serve: the
// GCC-only layout at a ±1 lag window, whose 24-dimensional vectors from
// four channels (12 from three) keep the pinned models small.
var pinFeatures = features.Config{MaxLag: 1, SampleRate: 48000, GCCOnly: true, UsePHAT: true}

// snapshotPins are the committed envelopes in testdata/: one tenant
// whose models are a static set (every model kind plus a degraded-array
// fallback, ensemble armed) and one whose models resolve through a
// versioned registry (orientation promoted to v2, a fingerprint, and a
// fallback layered over the registry's sets).
var snapshotPins = []struct {
	file, device, room string
	build              func(t testing.TB) (*core.System, *registry.Registry)
}{
	{"snapshot-static.json", "echo-show", "kitchen", staticPinTenant},
	{"snapshot-registry.json", "", "", registryPinTenant},
}

// pinOrientation trains an orientation model on eight synthetic vectors
// of the length the pins' feature geometry extracts from nch channels:
// restore refuses a model whose dimension the geometry cannot produce.
func pinOrientation(t testing.TB, shift float64, nch int) *orientation.Model {
	t.Helper()
	dim := pinFeatures.Dim(nch)
	var x [][]float64
	var y []int
	for i := 0; i < 8; i++ {
		v, label := -1.0, orientation.LabelNonFacing
		if i%2 == 1 {
			v, label = 1, orientation.LabelFacing
		}
		vec := []float64{v + shift, float64(i % 3), 0.5 * v, shift - 0.1*float64(i)}
		for k := len(vec); k < dim; k++ {
			vec = append(vec, float64((7*i+k)%5))
		}
		x = append(x, vec)
		y = append(y, label)
	}
	m, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pinFingerprint enrolls an array fingerprint from four marked captures.
func pinFingerprint(t testing.TB, seed uint64) *liveness.ArrayFingerprint {
	t.Helper()
	var recs []*audio.Recording
	for i := 0; i < 4; i++ {
		recs = append(recs, markedRecording(i%2 == 0, seed+uint64(i)))
	}
	fp, err := liveness.TrainArrayFingerprint(recs, liveness.FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// staticPinTenant: the served enrollment's spectral liveness model
// alongside orientation, fallback and fingerprint models, in HeadTalk
// mode.
func staticPinTenant(t testing.TB) (*core.System, *registry.Registry) {
	t.Helper()
	env, err := registry.ReadEnvelopeFile(filepath.Join("..", "core", "testdata", "served-enrollment", "liveness.json"))
	if err != nil {
		t.Fatal(err)
	}
	det, err := liveness.Load(bytes.NewReader(env.Payload))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Features: pinFeatures,
		Models: registry.NewStatic(registry.ModelSet{
			Orientation:           pinOrientation(t, 0, 4),
			OrientationByChannels: map[int]*orientation.Model{3: pinOrientation(t, 0.25, 3)},
			Liveness:              det,
			ArrayFingerprint:      pinFingerprint(t, 500),
			RequireEnsemble:       true,
		}),
		LivenessThreshold: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(core.ModeHeadTalk)
	return sys, nil
}

// registryPinTenant: a registry serving orientation v2 (promoted past
// v1) and a fingerprint, with a 3-channel fallback overlaid, muted.
func registryPinTenant(t testing.TB) (*core.System, *registry.Registry) {
	t.Helper()
	reg := registry.New(registry.Config{})
	if _, err := reg.Install(registry.KindOrientation, pinOrientation(t, 0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(registry.KindOrientation, pinOrientation(t, 0.5, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(registry.KindArrayFingerprint, pinFingerprint(t, 600)); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Features:       pinFeatures,
		Models:         &fallbackProvider{inner: reg, fallbacks: map[int]*orientation.Model{3: pinOrientation(t, 0.75, 3)}},
		SessionTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(core.ModeMute)
	return sys, reg
}

// captureFile renders a tenant's envelope the way the pins store it.
func captureFile(t testing.TB, tn *pool.Tenant, device, room string) []byte {
	t.Helper()
	env, err := CaptureTenant(tn, device, room)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// hostTenant serves sys (and its registry, when managed) in a one-tenant
// pool, the shape CaptureTenant reads.
func hostTenant(t testing.TB, id string, sys *core.System, models *registry.Registry) *pool.Tenant {
	t.Helper()
	p := pool.New()
	t.Cleanup(func() { p.Close() })
	tn, err := p.AddTenant(pool.TenantConfig{ID: id, System: sys, Models: models, Workers: 1, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// readPin loads one committed envelope.
func readPin(t testing.TB, file string) ([]byte, *Envelope) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return data, &env
}

// TestSnapshotPinsRecapture: each committed envelope restores, and the
// restored tenant re-captures to the same bytes. -update rebuilds the
// envelopes from freshly trained tenants.
func TestSnapshotPinsRecapture(t *testing.T) {
	for _, pin := range snapshotPins {
		t.Run(pin.file, func(t *testing.T) {
			if *update {
				sys, models := pin.build(t)
				id := pin.file[len("snapshot-") : len(pin.file)-len(".json")]
				data := captureFile(t, hostTenant(t, id, sys, models), pin.device, pin.room)
				if err := os.WriteFile(filepath.Join("testdata", pin.file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, env := readPin(t, pin.file)
			sys, models, err := BuildSystemWithModels(env, nil)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if (models != nil) != (pin.file == "snapshot-registry.json") {
				t.Fatalf("restored registry = %v for %s", models, pin.file)
			}
			device, room, err := env.Profile()
			if err != nil {
				t.Fatal(err)
			}
			got := captureFile(t, hostTenant(t, env.TenantID, sys, models), device, room)
			if !bytes.Equal(got, want) {
				t.Fatalf("re-capture differs from the committed envelope (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// resealed returns env with its payload rewritten by edit and the
// checksum recomputed over the result.
func resealed(t testing.TB, env *Envelope, edit func(p map[string]any)) []byte {
	t.Helper()
	var p map[string]any
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		t.Fatal(err)
	}
	edit(p)
	payload, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	out := *env
	out.Payload = payload
	out.Checksum = registry.Checksum(payload)
	data, err := json.Marshal(&out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreRefusesUnscorableGeometry: an envelope whose feature
// geometry its orientation models cannot score is refused at restore
// with ErrSnapshotCorrupt, instead of restoring a tenant that fails
// every decision.
func TestRestoreRefusesUnscorableGeometry(t *testing.T) {
	_, static := readPin(t, "snapshot-static.json")
	setLag := func(lag int) func(p map[string]any) {
		return func(p map[string]any) { p["features"].(map[string]any)["MaxLag"] = lag }
	}
	for _, c := range []struct {
		name string
		edit func(p map[string]any)
		ok   bool
	}{
		{"lag-20000", setLag(20000), false},
		{"lag-minus-3", setLag(-3), false},
		{"lag-0", setLag(0), false},
		{"lag-2", setLag(2), false},
		{"gcc-band-above-nyquist", func(p map[string]any) {
			f := p["features"].(map[string]any)
			f["GCCBandLo"], f["GCCBandHi"] = 30000, 40000
		}, false},
		// The primary model is 24-dimensional: four channels, not three.
		{"subset-of-4", func(p map[string]any) { p["channel_subset"] = []int{0, 1, 2, 3} }, true},
		{"subset-of-3", func(p map[string]any) { p["channel_subset"] = []int{0, 1, 2} }, false},
		// The 3-channel fallback filed under another channel count.
		{"fallback-as-2", func(p map[string]any) {
			fb := p["orientation_by_channels"].(map[string]any)
			fb["2"] = fb["3"]
			delete(fb, "3")
		}, false},
	} {
		var env Envelope
		if err := json.Unmarshal(resealed(t, static, c.edit), &env); err != nil {
			t.Fatal(err)
		}
		_, _, err := BuildSystemWithModels(&env, nil)
		if c.ok && err != nil {
			t.Errorf("%s: restore refused: %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: restore err = %v, want ErrSnapshotCorrupt", c.name, err)
		}
	}
}

// FuzzSnapshotEnvelope: whatever bytes arrive as a snapshot envelope,
// restore never panics. It either builds a system or fails with a
// typed error: a snapshot sentinel, a registry envelope sentinel, or a
// model loader's. A checksum stops nearly every mutation at Verify, so
// each input is also tried re-sealed, which lets the mutated payload
// reach the decoders.
func FuzzSnapshotEnvelope(f *testing.F) {
	_, static := readPin(f, "snapshot-static.json")
	_, managed := readPin(f, "snapshot-registry.json")
	for _, env := range []*Envelope{static, managed} {
		data, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	tampered := *static
	tampered.Checksum = "0000000000000000"
	future := *managed
	future.Version = SnapshotVersion + 1
	for _, env := range []*Envelope{&tampered, &future} {
		data, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(resealed(f, static, func(p map[string]any) {
		p["orientation_by_channels"] = map[string]any{"three": p["orientation"]}
	}))
	f.Add(resealed(f, managed, func(p map[string]any) {
		p["registry_versions"] = map[string]any{"orientation": 0, "fingerprint": 3}
	}))

	typed := func(t *testing.T, sys *core.System, err error) {
		if err == nil {
			if sys == nil {
				t.Fatal("restore returned neither a system nor an error")
			}
			return
		}
		for _, want := range []error{
			ErrSnapshotVersion, ErrSnapshotChecksum, ErrSnapshotCorrupt,
			registry.ErrModelCorrupt, registry.ErrModelVersion,
			ml.ErrCorruptModel, ml.ErrUnsupportedVersion,
		} {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("untyped restore error: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		if json.Unmarshal(data, &env) != nil {
			return
		}
		sys, _, err := BuildSystemWithModels(&env, nil)
		typed(t, sys, err)
		env.Checksum = registry.Checksum(env.Payload)
		sys, _, err = BuildSystemWithModels(&env, nil)
		typed(t, sys, err)
	})
}
