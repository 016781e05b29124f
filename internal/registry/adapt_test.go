package registry

import (
	"math/rand/v2"
	"testing"

	"headtalk/internal/metrics"
)

// acceptedFeat fabricates a feature vector deep in the facing cluster
// the test models were trained on (trainedModel puts facing at +shift
// on the first dimension), so self-training confidence clears the
// adaptation floor.
func acceptedFeat(rng *rand.Rand) []float64 {
	f := make([]float64, 4)
	for j := range f {
		f[j] = 0.2 * rng.NormFloat64()
	}
	f[0] += 4.0
	return f
}

func TestAdaptNowBuildsCandidate(t *testing.T) {
	m := metrics.NewRegistry()
	reg := New(Config{
		Metrics: m,
		Adapt:   AdaptConfig{BatchSize: 64, MinConfidence: 0.55},
	})
	active, err := reg.Install(KindOrientation, trainedModel(t, 40, 2.0))
	if err != nil {
		t.Fatal(err)
	}

	set := reg.ModelSet()
	if set.OnAccepted == nil {
		t.Fatal("registry set should carry the adaptation hook")
	}
	rng := rand.New(rand.NewPCG(41, 1))
	for i := 0; i < 8; i++ {
		set.OnAccepted(acceptedFeat(rng), 1.0)
	}

	cand, err := reg.AdaptNow()
	if err != nil {
		t.Fatal(err)
	}
	if cand == active {
		t.Fatal("adaptation must land as a NEW version")
	}
	// The candidate never auto-promotes: the active version is
	// untouched.
	if got := activeVersion(reg, KindOrientation); got != active {
		t.Fatalf("adaptation hot-swapped itself in: serving v%d, want v%d", got, active)
	}
	var found *VersionInfo
	for _, st := range reg.Status() {
		if st.Kind != KindOrientation {
			continue
		}
		for i := range st.Versions {
			if st.Versions[i].Number == cand {
				found = &st.Versions[i]
			}
		}
	}
	if found == nil || found.State != StateCandidate {
		t.Fatalf("built version %d not stored as candidate: %+v", cand, found)
	}

	snap := m.Snapshot()
	if snap.Counters["registry_adapt_accepted_total"] != 8 {
		t.Fatalf("accepted counter %d, want 8", snap.Counters["registry_adapt_accepted_total"])
	}
	if snap.Counters["registry_adapt_candidates_total"] != 1 {
		t.Fatalf("candidate counter %d, want 1", snap.Counters["registry_adapt_candidates_total"])
	}

	// Nothing pending anymore: a second forced build reports it.
	if _, err := reg.AdaptNow(); err == nil {
		t.Fatal("AdaptNow with nothing pending should fail")
	}
}

func TestAdaptBatchTriggersInBackground(t *testing.T) {
	reg := New(Config{
		Adapt: AdaptConfig{BatchSize: 4, MinConfidence: 0.55},
	})
	active, err := reg.Install(KindOrientation, trainedModel(t, 42, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	set := reg.ModelSet()
	rng := rand.New(rand.NewPCG(43, 1))
	for i := 0; i < 4; i++ {
		set.OnAccepted(acceptedFeat(rng), 1.0)
	}
	reg.WaitAdapt()

	// The batch build stored one new candidate beside the untouched
	// active version.
	if got := activeVersion(reg, KindOrientation); got != active {
		t.Fatalf("batch build changed serving: active v%d, want v%d", got, active)
	}
	candidates := 0
	for _, st := range reg.Status() {
		for _, v := range st.Versions {
			if st.Kind == KindOrientation && v.Number != active && v.State == StateCandidate {
				candidates++
			}
		}
	}
	if candidates != 1 {
		t.Fatalf("batch build stored %d candidates, want 1", candidates)
	}
}

func TestAdaptWithoutActiveModelFails(t *testing.T) {
	reg := New(Config{Adapt: AdaptConfig{MinConfidence: 0.55}})
	rng := rand.New(rand.NewPCG(44, 1))
	reg.adapt.observe(acceptedFeat(rng), 1.0)
	if _, err := reg.AdaptNow(); err == nil {
		t.Fatal("adaptation with no active orientation model should fail")
	}
}

func TestDriftDetectorTripsOnShift(t *testing.T) {
	m := metrics.NewRegistry()
	reg := New(Config{
		Metrics: m,
		Drift:   DriftConfig{MinBaseline: 16, Window: 16, Threshold: 3},
	})
	v1, err := reg.Install(KindOrientation, trainedModel(t, 45, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	set := reg.ModelSet()
	if set.OnScore == nil {
		t.Fatal("registry set should carry the drift hook")
	}

	// Baseline: scores around +1 with modest spread.
	rng := rand.New(rand.NewPCG(46, 1))
	for i := 0; i < 16; i++ {
		set.OnScore(1.0 + 0.1*rng.NormFloat64())
	}
	st := reg.DriftState()
	if !st.BaselineReady {
		t.Fatalf("baseline not established: %+v", st)
	}
	if st.Tripped {
		t.Fatalf("tripped during baseline: %+v", st)
	}

	// Stable traffic: no trip.
	for i := 0; i < 16; i++ {
		set.OnScore(1.0 + 0.1*rng.NormFloat64())
	}
	if st := reg.DriftState(); st.Tripped {
		t.Fatalf("stable distribution tripped: %+v", st)
	}

	// Synthetic shift: the score distribution collapses to -1.
	for i := 0; i < 16; i++ {
		set.OnScore(-1.0 + 0.1*rng.NormFloat64())
	}
	st = reg.DriftState()
	if !st.Tripped || st.Trips < 1 {
		t.Fatalf("shift did not trip the detector: %+v", st)
	}
	snap := m.Snapshot()
	if snap.Counters["registry_drift_trips_total"] < 1 {
		t.Fatal("drift trip not metered")
	}
	if snap.Gauges["registry_drift_shift_millisigma"] <= 0 {
		t.Fatal("drift shift gauge not exported")
	}

	// A promote resets the detector: new model, new distribution.
	v2, err := reg.AddModel(KindOrientation, trainedModel(t, 47, 3.0))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(KindOrientation, v2); err != nil {
		t.Fatal(err)
	}
	st = reg.DriftState()
	if st.BaselineReady || st.Tripped || st.Trips != 0 {
		t.Fatalf("promote did not reset drift state: %+v", st)
	}
	_ = v1
}

// Once a build has run, the adaptation hook copies accepted feature
// vectors into recycled buffers: a warm accept allocates nothing.
func TestAdaptObserveAllocFree(t *testing.T) {
	reg := New(Config{Adapt: AdaptConfig{BatchSize: 64, MinConfidence: 0.55}})
	if _, err := reg.Install(KindOrientation, trainedModel(t, 40, 2.0)); err != nil {
		t.Fatal(err)
	}
	set := reg.ModelSet()
	rng := rand.New(rand.NewPCG(43, 1))
	feat := acceptedFeat(rng)
	for i := 0; i < 8; i++ {
		set.OnAccepted(acceptedFeat(rng), 1.0)
	}
	if _, err := reg.AdaptNow(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { set.OnAccepted(feat, 1.0) }); allocs != 0 {
		t.Fatalf("warm adaptation hook allocated %.1f times per accept, want 0", allocs)
	}
	// The recycled buffers hold copies: the next build sees the
	// observed vectors, not whatever the caller's slice holds now.
	want := append([]float64(nil), feat...)
	feat[0] = -100
	reg.adapt.mu.Lock()
	got := reg.adapt.pending[len(reg.adapt.pending)-1]
	reg.adapt.mu.Unlock()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending vector %v, want %v", got, want)
		}
	}
}
