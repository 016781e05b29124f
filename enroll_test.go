package headtalk

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/features"
	"headtalk/internal/liveness"
	"headtalk/internal/orientation"
	"headtalk/internal/registry"
)

// cheapEnrollment builds an Enrollment without the slow Enroll flow:
// the orientation model trains on synthetic multi-channel noise whose
// inter-channel coherence differs by class, and the array fingerprint
// enrolls on four such captures. Liveness stays nil (orientation-only
// deployments are valid per LoadEnrollment).
func cheapEnrollment(t *testing.T) *Enrollment {
	t.Helper()
	rec := func(facing bool, seed uint64) *audio.Recording {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 24000
		r := audio.NewRecording(48000, 4, n)
		if facing {
			src := make([]float64, n+8)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			for c := 0; c < 4; c++ {
				copy(r.Channels[c], src[c:c+n])
				for i := range r.Channels[c] {
					r.Channels[c][i] += 0.1 * rng.NormFloat64()
				}
			}
		} else {
			for c := 0; c < 4; c++ {
				for i := range r.Channels[c] {
					r.Channels[c][i] = rng.NormFloat64()
				}
			}
		}
		return r
	}
	featCfg := features.DefaultConfig(13, 48000)
	var x [][]float64
	var y []int
	for i := 0; i < 14; i++ {
		facing := i%2 == 1
		f, err := features.Extract(rec(facing, uint64(i)), featCfg)
		if err != nil {
			t.Fatal(err)
		}
		x = append(x, f)
		label := orientation.LabelNonFacing
		if facing {
			label = orientation.LabelFacing
		}
		y = append(y, label)
	}
	m, err := orientation.Train(x, y, orientation.ModelConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var caps []*audio.Recording
	for i := 0; i < 4; i++ {
		caps = append(caps, rec(i%2 == 0, uint64(200+i)))
	}
	fp, err := liveness.TrainArrayFingerprint(caps, liveness.FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &Enrollment{Orientation: m, ArrayFingerprint: fp}
}

func TestSaveToWritesVerifiedEnvelopes(t *testing.T) {
	enr := cheapEnrollment(t)
	dir := t.TempDir()
	if err := enr.SaveTo(dir); err != nil {
		t.Fatal(err)
	}

	// Every file on disk is a sealed registry envelope of the right
	// kind — not a bare model document.
	for name, kind := range map[string]registry.Kind{
		"orientation.json": registry.KindOrientation,
		"fingerprint.json": registry.KindArrayFingerprint,
	} {
		env, err := registry.ReadEnvelopeFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if env.Kind != string(kind) {
			t.Fatalf("%s sealed as %q, want %q", name, env.Kind, kind)
		}
		if err := env.Verify(); err != nil {
			t.Fatalf("%s failed integrity check straight off disk: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "liveness.json")); !os.IsNotExist(err) {
		t.Fatal("liveness.json written despite no trained detector")
	}

	loaded, err := LoadEnrollment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Liveness != nil {
		t.Fatal("liveness materialized from nothing")
	}
	// Round-tripped models serialize byte-identically to the originals.
	var a, b bytes.Buffer
	if err := enr.Orientation.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Orientation.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("orientation model changed across save/load")
	}
	a.Reset()
	b.Reset()
	if err := enr.ArrayFingerprint.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.ArrayFingerprint.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("array fingerprint changed across save/load")
	}
}

func TestLoadEnrollmentLegacyBareFormat(t *testing.T) {
	// Pre-envelope enrollment directories hold the bare model JSON,
	// with no checksum to verify: they are refused, not loaded
	// unverified.
	enr := cheapEnrollment(t)
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := enr.Orientation.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "orientation.json"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := LoadEnrollment(dir); !errors.Is(err, registry.ErrModelCorrupt) {
		t.Fatalf("bare model file: %+v, %v; want ErrModelCorrupt", loaded, err)
	}
}

func TestLoadEnrollmentTypedErrors(t *testing.T) {
	enr := cheapEnrollment(t)
	dir := t.TempDir()
	if err := enr.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	orientPath := filepath.Join(dir, "orientation.json")
	pristine, err := os.ReadFile(orientPath)
	if err != nil {
		t.Fatal(err)
	}

	// Payload tampering → ErrModelCorrupt.
	var env registry.Envelope
	if err := json.Unmarshal(pristine, &env); err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(pristine, env.Payload[:20], append([]byte(nil), bytes.ToUpper(env.Payload[:20])...), 1)
	if bytes.Equal(tampered, pristine) {
		t.Fatal("tamper did not change the file")
	}
	if err := os.WriteFile(orientPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnrollment(dir); !errors.Is(err, registry.ErrModelCorrupt) {
		t.Fatalf("tampered payload: %v, want ErrModelCorrupt", err)
	}

	// Future envelope format version → ErrModelVersion.
	skewed := bytes.Replace(pristine,
		[]byte(fmt.Sprintf(`"version":%d`, registry.EnvelopeVersion)),
		[]byte(`"version":99`), 1)
	if bytes.Equal(skewed, pristine) {
		t.Fatal("version skew did not change the file")
	}
	if err := os.WriteFile(orientPath, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnrollment(dir); !errors.Is(err, registry.ErrModelVersion) {
		t.Fatalf("future envelope version: %v, want ErrModelVersion", err)
	}

	// A file holding the wrong model family → ErrModelCorrupt.
	fpBytes, err := os.ReadFile(filepath.Join(dir, "fingerprint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orientPath, fpBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEnrollment(dir); !errors.Is(err, registry.ErrModelCorrupt) {
		t.Fatalf("kind mismatch: %v, want ErrModelCorrupt", err)
	}
}

// TestSaveToCrashSafety pins SaveTo's no-torn-file contract: a save
// whose serialization fails leaves the previous complete file
// untouched and no temp litter; a successful save replaces each file
// whole. (The temp-file + fsync + rename discipline itself lives in
// registry.AtomicWriteFile, whose no-litter behavior registry's own
// tests pin — this guards the enrollment-side wiring.)
func TestSaveToCrashSafety(t *testing.T) {
	dir := t.TempDir()
	old := []byte(`{"generation":"old"}`)
	for _, name := range []string{"orientation.json", "liveness.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// An untrained detector cannot serialize: the save dies at liveness.
	enr := cheapEnrollment(t)
	enr.Liveness = liveness.NewDetector(1)
	if err := enr.SaveTo(dir); err == nil {
		t.Fatal("SaveTo swallowed the serialization failure")
	}
	got, err := os.ReadFile(filepath.Join(dir, "liveness.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed save touched the destination: %q", got)
	}
	assertNoTempLitter(t, dir)

	// A good save lands complete, verifiable envelopes.
	enr.Liveness = nil
	if err := enr.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := registry.ReadEnvelopeFile(filepath.Join(dir, "orientation.json")); err != nil {
		t.Fatalf("successful save left an unreadable file: %v", err)
	}
	assertNoTempLitter(t, dir)
}

func assertNoTempLitter(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestEnrollmentRegistrySeedsActiveVersions(t *testing.T) {
	enr := cheapEnrollment(t)
	reg, err := enr.Registry(RegistryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	vers := map[ModelKind]uint64{}
	for _, st := range reg.Status() {
		if st.Active != 0 {
			vers[st.Kind] = st.Active
		}
	}
	if vers[KindOrientation] == 0 || vers[KindArrayFingerprint] == 0 {
		t.Fatalf("enrollment gates not active in the registry: %v", vers)
	}
	if _, ok := vers[KindLiveness]; ok {
		t.Fatal("untrained liveness gate installed")
	}
	set := reg.ModelSet()
	if set.Orientation == nil || set.ArrayFingerprint == nil {
		t.Fatal("registry set missing enrollment gates")
	}
}
