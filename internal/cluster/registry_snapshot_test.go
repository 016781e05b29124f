package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"headtalk/internal/audio"
	"headtalk/internal/core"
	"headtalk/internal/features"
	"headtalk/internal/liveness"
	"headtalk/internal/metrics"
	"headtalk/internal/orientation"
	"headtalk/internal/pool"
	"headtalk/internal/registry"
)

// registryTenant builds a HeadTalk system whose models resolve through
// a real versioned registry: orientation promoted past v1 (so version
// numbers are meaningful, not just "1") plus an enrolled array
// fingerprint.
func registryTenant(t testing.TB) (*core.System, *registry.Registry) {
	t.Helper()
	featCfg := features.DefaultConfig(13, 48000)
	train := func(seedBase uint64) *orientation.Model {
		var x [][]float64
		var y []int
		for i := 0; i < 14; i++ {
			facing := i%2 == 1
			f, err := features.Extract(markedRecording(facing, seedBase+uint64(i)), featCfg)
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
		return m
	}

	reg := registry.New(registry.Config{Metrics: metrics.NewRegistry()})
	if _, err := reg.Install(registry.KindOrientation, train(0)); err != nil {
		t.Fatal(err)
	}
	v2, err := reg.AddModel(registry.KindOrientation, train(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(registry.KindOrientation, v2); err != nil {
		t.Fatal(err)
	}

	var fpRecs []*audio.Recording
	for i := 0; i < 4; i++ {
		fpRecs = append(fpRecs, markedRecording(i%2 == 0, uint64(300+i)))
	}
	fp, err := liveness.TrainArrayFingerprint(fpRecs, liveness.FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Install(registry.KindArrayFingerprint, fp); err != nil {
		t.Fatal(err)
	}

	sys, err := core.NewSystem(core.Config{
		Features:       featCfg,
		Models:         reg,
		SessionTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetMode(core.ModeHeadTalk)
	return sys, reg
}

// TestRegistrySnapshotRoundTrip: capturing a registry-managed tenant
// embeds the registry's canonical blobs and version numbers; restoring
// on another node rebuilds a live registry serving byte-identical
// models under the same version numbers; re-capture reproduces the
// same checksum.
func TestRegistrySnapshotRoundTrip(t *testing.T) {
	c := newTestCluster(t, []string{"n1", "n2"}, clusterOpts{
		tune: func(id string, cfg *Config) {
			cfg.Profile = func(string) (string, string) { return "echo-show", "kitchen" }
		},
	})
	tenant := c.tenantOwnedBy("n1", "n2")
	sys, srcReg := registryTenant(t)
	if _, err := c.pools["n2"].AddTenant(pool.TenantConfig{
		ID: tenant, System: sys, Models: srcReg, Workers: 2, QueueSize: 8,
	}); err != nil {
		t.Fatal(err)
	}

	env, err := c.nodes["n1"].Snapshot(context.Background(), tenant)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := env.Verify(); err != nil {
		t.Fatal(err)
	}

	// The payload carries the registry version map, not just blobs.
	var p struct {
		RegistryVersions map[string]uint64 `json:"registry_versions"`
	}
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.RegistryVersions[string(registry.KindOrientation)] != 2 {
		t.Fatalf("captured orientation version %v, want 2 (promoted past v1)", p.RegistryVersions)
	}
	if p.RegistryVersions[string(registry.KindArrayFingerprint)] == 0 {
		t.Fatalf("captured fingerprint version missing: %v", p.RegistryVersions)
	}

	if err := restoreTenant(c.pools["n1"], env); err != nil {
		t.Fatalf("restore: %v", err)
	}
	tn, ok := c.pools["n1"].Tenant(tenant)
	if !ok {
		t.Fatal("restored tenant missing from local pool")
	}
	restored := tn.Models()
	if restored == nil {
		t.Fatal("restored tenant lost its model registry")
	}

	// Version numbers survive import, and the served blobs are
	// byte-for-byte the source registry's.
	srcStatus, gotStatus := srcReg.Status(), restored.Status()
	if len(gotStatus) != len(srcStatus) {
		t.Fatalf("%d kinds after restore, want %d", len(gotStatus), len(srcStatus))
	}
	for i, st := range srcStatus {
		if got := gotStatus[i]; got.Kind != st.Kind || got.Active != st.Active {
			t.Fatalf("kind %s version %d after restore, want kind %s version %d", got.Kind, got.Active, st.Kind, st.Active)
		}
	}
	for _, k := range []registry.Kind{registry.KindOrientation, registry.KindArrayFingerprint} {
		srcBytes, _ := srcReg.ActiveBytes(k)
		gotBytes, _ := restored.ActiveBytes(k)
		if !bytes.Equal(bytes.TrimSpace(srcBytes), bytes.TrimSpace(gotBytes)) {
			t.Fatalf("kind %s blob changed across snapshot round trip", k)
		}
	}

	// The restored gates actually run.
	d, err := tn.Engine().Decide(context.Background(), markedRecording(true, 42))
	if err != nil {
		t.Fatalf("post-restore decide: %v", err)
	}
	if !d.FacingRan || !d.FingerprintRan {
		t.Fatalf("restored registry gates skipped: %+v", d)
	}

	// Re-capture is checksum-stable: restore did not re-serialize.
	env2, err := CaptureTenant(tn, "echo-show", "kitchen")
	if err != nil {
		t.Fatal(err)
	}
	if env2.Checksum != env.Checksum {
		t.Fatalf("re-capture checksum %s != original %s", env2.Checksum, env.Checksum)
	}
}
