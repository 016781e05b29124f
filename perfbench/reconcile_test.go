package main

import (
	"math"
	"testing"

	"headtalk"
	"headtalk/internal/core"
	"headtalk/internal/features"
	"headtalk/internal/mic"
)

// TestReconciliation checks the traced replay's bookkeeping on the wake
// and session workloads: the layer calls that replay each decision must
// add up to core.System.ProcessWake within 10% (|core.unattributed_ms|
// <= 0.1 × core.process_wake_ms, medians over the cycle's decisions).
// The gates are enrolled with reduced repetitions to keep the test
// short; the layer path, not the model quality, is what it checks.
func TestReconciliation(t *testing.T) {
	if testing.Short() {
		t.Skip("enrolls gates and renders two corpora")
	}
	enr, err := headtalk.Enroll(headtalk.EnrollmentOptions{
		Seed: daemonSeed, Room: corpusRoom, Device: corpusDevice,
		OrientationReps: 1, LivenessPairs: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	array, err := mic.DeviceByID(corpusDevice)
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*core.System, error) {
		reg, err := enr.Registry(headtalk.RegistryConfig{})
		if err != nil {
			return nil, err
		}
		sys, err := headtalk.NewSystem(headtalk.Config{
			Models:   reg,
			Features: features.DefaultConfig(array.MaxDelaySamples(sampleRate, 340), sampleRate),
		})
		if err != nil {
			return nil, err
		}
		sys.SetMode(core.ModeHeadTalk)
		return sys, nil
	}
	cache := t.TempDir()
	for _, workload := range []string{"wake", "session"} {
		c, err := loadCorpus(cache, workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := newInproc(build, true)
		if err != nil {
			t.Fatal(err)
		}
		// The first cycle warms the workspaces; the second is measured.
		if _, _, err := ip.replayCycle(c); err != nil {
			t.Fatal(err)
		}
		ip.tr.spans = ip.tr.spans[:0]
		if _, _, err := ip.replayCycle(c); err != nil {
			t.Fatal(err)
		}
		ip.close()
		sp := summarizeSpans(ip.tr)
		coreMS := median(sp.byName["core.process_wake"])
		un := median(sp.unattributed)
		t.Logf("%s: core.process_wake %.3f ms, unattributed %.3f ms over %d decisions",
			workload, coreMS, un, len(sp.unattributed))
		if math.Abs(un) > 0.1*coreMS {
			t.Errorf("%s: |unattributed| %.3f ms exceeds 10%% of core.process_wake %.3f ms", workload, un, coreMS)
		}
		for _, layer := range []string{"audio.validate", "mic.health", "dsp.bandpass", "liveness.score",
			"liveness.fingerprint", "features.extract", "srp.gcc", "orientation.classify"} {
			if len(sp.byName[layer]) == 0 {
				t.Errorf("%s: layer %s never ran", workload, layer)
			}
		}
	}
}
