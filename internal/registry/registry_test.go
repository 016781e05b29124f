package registry

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"headtalk/internal/metrics"
	"headtalk/internal/orientation"
)

// trainedModel builds a tiny orientation model on synthetic 4-d
// features: facing samples cluster at +shift on the first dimension,
// non-facing at -shift. Different seeds/shifts give models with
// different serialized bytes, which is what the version tests need.
// activeVersion reports the version number the registry serves for
// kind k (0: none).
func activeVersion(reg *Registry, k Kind) uint64 {
	for _, st := range reg.Status() {
		if st.Kind == k {
			return st.Active
		}
	}
	return 0
}

func trainedModel(t *testing.T, seed uint64, shift float64) *orientation.Model {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 17))
	var x [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		facing := i%2 == 0
		f := make([]float64, 4)
		for j := range f {
			f[j] = 0.3 * rng.NormFloat64()
		}
		if facing {
			f[0] += shift
			y = append(y, orientation.LabelFacing)
		} else {
			f[0] -= shift
			y = append(y, orientation.LabelNonFacing)
		}
		x = append(x, f)
	}
	m, err := orientation.Train(x, y, orientation.ModelConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func modelBytes(t *testing.T, m *orientation.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEnvelopeSealVerifyOpen(t *testing.T) {
	payload := []byte(`{"hello":"world"}`)
	env := Seal(KindOrientation, 3, payload)
	if env.Version != EnvelopeVersion || env.Kind != "orientation" || env.ModelVersion != 3 {
		t.Fatalf("envelope header %+v", env)
	}
	if err := env.Verify(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Payload, payload) {
		t.Fatalf("payload %q, want %q", env.Payload, payload)
	}

	// Tampered payload must fail the checksum.
	bad := *env
	bad.Payload = []byte(`{"hello":"W0RLD"}`)
	if err := bad.Verify(); !errors.Is(err, ErrModelCorrupt) {
		t.Fatalf("tampered payload: %v, want ErrModelCorrupt", err)
	}

	// Future format version is a version error, not corruption.
	future := *env
	future.Version = EnvelopeVersion + 1
	if err := future.Verify(); !errors.Is(err, ErrModelVersion) {
		t.Fatalf("future version: %v, want ErrModelVersion", err)
	}

	var nilEnv *Envelope
	if err := nilEnv.Verify(); !errors.Is(err, ErrModelCorrupt) {
		t.Fatalf("nil envelope: %v, want ErrModelCorrupt", err)
	}
}

func TestEnvelopeFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	env := Seal(KindLiveness, 7, []byte(`{"v":1}`))
	if err := WriteEnvelopeFile(path, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEnvelopeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != env.Kind || got.Checksum != env.Checksum || got.ModelVersion != 7 {
		t.Fatalf("round trip %+v, want %+v", got, env)
	}

	// A torn/garbage file surfaces as ErrModelCorrupt, never a panic.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelopeFile(path); !errors.Is(err, ErrModelCorrupt) {
		t.Fatalf("garbage file: %v, want ErrModelCorrupt", err)
	}
}

// TestEnvelopeFileKeepsPayloadVerbatim: a payload that is not compact
// JSON still reads back, because the file holds exactly the bytes the
// checksum covers.
func TestEnvelopeFileKeepsPayloadVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	payload := []byte(`{"a": 1}`)
	if err := WriteEnvelopeFile(path, Seal(KindLiveness, 1, payload)); err != nil {
		t.Fatal(err)
	}
	env, err := ReadEnvelopeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Verify(); err != nil || !bytes.Equal(env.Payload, payload) {
		t.Fatalf("payload read back as %q, %v; want %q", env.Payload, err, payload)
	}
	// The trailing newline json.Encoder writes is sealed away, not
	// written into a checksum no file can match.
	if err := WriteEnvelopeFile(path, Seal(KindLiveness, 1, append(payload, '\n'))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadEnvelopeFile(path); err != nil {
		t.Fatalf("newline-terminated payload: %v", err)
	}
	if err := WriteEnvelopeFile(path, &Envelope{Version: EnvelopeVersion, Kind: "liveness", Payload: []byte("{not json")}); err == nil {
		t.Fatal("wrote an envelope whose payload is not JSON")
	}
}

// FuzzReadEnvelopeFile: whatever bytes sit in an envelope file,
// ReadEnvelopeFile never panics; it either fails with ErrModelCorrupt
// or ErrModelVersion, or returns an envelope whose opened payload
// re-seals to the checksum the file recorded.
func FuzzReadEnvelopeFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "model.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		env, err := ReadEnvelopeFile(path)
		if err != nil {
			if !errors.Is(err, ErrModelCorrupt) && !errors.Is(err, ErrModelVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := env.Verify(); err != nil {
			t.Fatalf("read envelope does not verify: %v", err)
		}
		if got := Seal(Kind(env.Kind), env.ModelVersion, env.Payload).Checksum; got != env.Checksum {
			t.Fatalf("payload re-seals to %s, file says %s", got, env.Checksum)
		}
	})
}

func TestAtomicWriteFileLeavesNoLitter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := AtomicWriteFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("content %q, want %q", data, "two")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp litter left behind: %s", e.Name())
		}
	}
}

func TestInstallPromoteRollbackByteExact(t *testing.T) {
	reg := New(Config{})
	m1 := trainedModel(t, 1, 2.0)
	v1, err := reg.Install(KindOrientation, m1)
	if err != nil {
		t.Fatal(err)
	}
	set := reg.ModelSet()
	if got := activeVersion(reg, KindOrientation); set.Orientation == nil || got != v1 {
		t.Fatalf("after install: serving v%d, want v%d", got, v1)
	}
	b1, n1 := reg.ActiveBytes(KindOrientation)
	if n1 != v1 || len(b1) == 0 {
		t.Fatalf("ActiveBytes (%d bytes, v%d)", len(b1), n1)
	}

	m2 := trainedModel(t, 2, 3.0)
	v2, err := reg.AddModel(KindOrientation, m2)
	if err != nil {
		t.Fatal(err)
	}
	// A candidate must not serve.
	if got := activeVersion(reg, KindOrientation); got != v1 {
		t.Fatalf("candidate leaked into serving set: v%d", got)
	}
	if err := reg.Promote(KindOrientation, v2); err != nil {
		t.Fatal(err)
	}
	if got := activeVersion(reg, KindOrientation); got != v2 {
		t.Fatalf("after promote: serving v%d, want v%d", got, v2)
	}

	// Rollback restores the prior version byte for byte.
	restored, err := reg.Rollback(KindOrientation)
	if err != nil {
		t.Fatal(err)
	}
	if restored != v1 {
		t.Fatalf("rollback restored v%d, want v%d", restored, v1)
	}
	b1Again, n1Again := reg.ActiveBytes(KindOrientation)
	if n1Again != v1 || !bytes.Equal(b1, b1Again) {
		t.Fatalf("rollback not byte-exact: %d bytes v%d vs %d bytes v%d", len(b1), n1, len(b1Again), n1Again)
	}
	// The served model decodes from those same bytes.
	if activeVersion(reg, KindOrientation) != v1 {
		t.Fatal("serving set disagrees with ActiveBytes after rollback")
	}

	// Rolling back again swaps forward to v2 (active/prev exchange).
	again, err := reg.Rollback(KindOrientation)
	if err != nil {
		t.Fatal(err)
	}
	if again != v2 {
		t.Fatalf("second rollback restored v%d, want v%d", again, v2)
	}
}

func TestRollbackWithoutHistoryFails(t *testing.T) {
	reg := New(Config{})
	if _, err := reg.Rollback(KindOrientation); err == nil {
		t.Fatal("rollback on empty registry should fail")
	}
	if _, err := reg.Install(KindOrientation, trainedModel(t, 3, 2.0)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Rollback(KindOrientation); err == nil {
		t.Fatal("rollback with no previous version should fail")
	}
}

// TestLifecycleStates walks one version through the lifecycle:
// candidate (stored, not serving) → active → archived (kept as the
// rollback target).
func TestLifecycleStates(t *testing.T) {
	reg := New(Config{})
	v1, err := reg.Install(KindOrientation, trainedModel(t, 4, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	cand, err := reg.AddModel(KindOrientation, trainedModel(t, 5, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	states := func() map[uint64]State {
		out := map[uint64]State{}
		for _, st := range reg.Status() {
			for _, v := range st.Versions {
				out[v.Number] = v.State
			}
		}
		return out
	}
	if got := states(); got[v1] != StateActive || got[cand] != StateCandidate {
		t.Fatalf("after add: states %v", got)
	}
	if got := activeVersion(reg, KindOrientation); got != v1 {
		t.Fatalf("a candidate went live: serving v%d, want v%d", got, v1)
	}

	if err := reg.Promote(KindOrientation, cand); err != nil {
		t.Fatal(err)
	}
	if got := states(); got[v1] != StateArchived || got[cand] != StateActive {
		t.Fatalf("after promote: states %v", got)
	}
	if got := activeVersion(reg, KindOrientation); got != cand {
		t.Fatalf("promoted candidate not serving: v%d", got)
	}
	if st := reg.Status()[0]; st.Active != cand || st.Previous != v1 {
		t.Fatalf("status %+v, want active v%d with previous v%d", st, cand, v1)
	}
}

func TestImportActivePreservesVersionNumbers(t *testing.T) {
	reg := New(Config{})
	v1, err := reg.Install(KindOrientation, trainedModel(t, 6, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	payload, num := reg.ActiveBytes(KindOrientation)
	if num != v1 {
		t.Fatalf("ActiveBytes v%d, want v%d", num, v1)
	}

	// Reconstruct (what snapshot restore does) and compare checksums.
	restored := New(Config{})
	if err := restored.ImportActive(KindOrientation, num, payload); err != nil {
		t.Fatal(err)
	}
	b2, n2 := restored.ActiveBytes(KindOrientation)
	if n2 != num || !bytes.Equal(payload, b2) {
		t.Fatal("import did not preserve bytes/version")
	}
	st := restored.Status()
	if len(st) != 1 || st[0].Active != num || st[0].Versions[0].Checksum != reg.Status()[0].Versions[len(reg.Status()[0].Versions)-1].Checksum {
		t.Fatalf("restored status %+v", st)
	}

	// New versions added after an import allocate past the imported
	// number.
	v2, err := restored.AddModel(KindOrientation, trainedModel(t, 7, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= num {
		t.Fatalf("post-import version %d not past imported %d", v2, num)
	}
}

func TestAddRejectsGarbage(t *testing.T) {
	reg := New(Config{})
	if _, err := reg.Add(KindOrientation, []byte("{")); !errors.Is(err, ErrModelCorrupt) {
		t.Fatalf("garbage payload: %v, want ErrModelCorrupt", err)
	}
	if _, err := reg.Add(Kind("bogus"), []byte("{}")); err == nil {
		t.Fatal("unknown kind should fail")
	}
	if err := reg.ImportActive(KindOrientation, 0, modelBytes(t, trainedModel(t, 8, 2.0))); err == nil {
		t.Fatal("import with version 0 should fail")
	}
}

func TestPruneNeverDropsLifecycleVersions(t *testing.T) {
	reg := New(Config{MaxVersionsPerKind: 3})
	var nums []uint64
	for i := 0; i < 6; i++ {
		n, err := reg.AddModel(KindOrientation, trainedModel(t, uint64(10+i), 2.0))
		if err != nil {
			t.Fatal(err)
		}
		nums = append(nums, n)
	}
	if err := reg.Promote(KindOrientation, nums[4]); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(KindOrientation, nums[5]); err != nil {
		t.Fatal(err)
	}
	// Trip pruning once more.
	if _, err := reg.AddModel(KindOrientation, trainedModel(t, 20, 2.0)); err != nil {
		t.Fatal(err)
	}
	st := reg.Status()[0]
	if len(st.Versions) > 4 { // max 3 + the just-added candidate before next prune pass settles
		t.Fatalf("prune retained %d versions (max 3): %+v", len(st.Versions), st.Versions)
	}
	seen := map[uint64]bool{}
	for _, v := range st.Versions {
		seen[v.Number] = true
	}
	if !seen[st.Active] || (st.Previous != 0 && !seen[st.Previous]) {
		t.Fatalf("prune dropped a lifecycle version: %+v", st)
	}
}

// TestConcurrentHotSwapUnderLoad hammers promote/rollback from one set
// of goroutines while others resolve ModelSets and score through them.
// Run with -race; the invariant is that every resolved set is
// internally consistent (model present, scoring as one of the two live
// versions) no matter how the swaps interleave.
func TestConcurrentHotSwapUnderLoad(t *testing.T) {
	reg := New(Config{Metrics: metrics.NewRegistry()})
	v1, err := reg.Install(KindOrientation, trainedModel(t, 30, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := reg.AddModel(KindOrientation, trainedModel(t, 31, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	// Each version is told apart by its score on a fixed vector.
	feat := []float64{2, 0, 0, 0}
	score1 := reg.ModelSet().Orientation.Score(feat)
	if err := reg.Promote(KindOrientation, v2); err != nil {
		t.Fatal(err)
	}
	score2 := reg.ModelSet().Orientation.Score(feat)
	if score1 == score2 {
		t.Fatalf("versions %d and %d score %v alike; the check below could not tell them apart", v1, v2, score1)
	}

	const (
		swappers = 4
		readers  = 4
		rounds   = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, swappers+readers)
	for i := 0; i < swappers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if j%2 == 0 {
					_ = reg.Promote(KindOrientation, v1)
				} else {
					_, _ = reg.Rollback(KindOrientation)
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]float64, 0, 8)
			for j := 0; j < rounds; j++ {
				set := reg.ModelSet()
				if set.Orientation == nil {
					errs <- errors.New("resolved set lost its orientation model mid-swap")
					return
				}
				_, got, s := set.Orientation.PredictScore(feat, scratch)
				scratch = s
				if got != score1 && got != score2 {
					errs <- errors.New("resolved set serves an unknown version")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The registry must still be coherent after the storm.
	if set := reg.ModelSet(); set.Orientation == nil {
		t.Fatal("registry lost its model after concurrent swaps")
	}
}
