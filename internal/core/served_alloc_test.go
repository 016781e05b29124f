package core_test

import (
	"context"
	"runtime"
	"testing"

	"headtalk/internal/audio"
	"headtalk/internal/core"
)

// The served enrollment's pins: with spectral liveness and the array
// fingerprint installed, a warm worker's decisions allocate nothing and
// a reused worker arena decides exactly like a fresh one.

// TestServedSessionFollowUpAllocFree pins a session follow-up — both
// liveness gates run, orientation is skipped — at zero allocations.
func TestServedSessionFollowUpAllocFree(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	enr := servedEnrollment(t)
	caps := servedCaptures(t)
	sys := servedSystem(t, enr, servedOptions{})
	p := sys.NewPreprocessor()
	ctx := context.Background()

	d, err := sys.ProcessWakeWith(ctx, p, servedCaptureNamed(t, caps, "facing-1m"))
	if err != nil || d.Reason != core.ReasonAccepted {
		t.Fatalf("session-opening decision %+v, %v", d, err)
	}
	follow := servedCaptureNamed(t, caps, "session-facing-5m")
	check := func() {
		d, err := sys.ProcessWakeWith(ctx, p, follow)
		if err != nil || d.Reason != core.ReasonSessionActive || !d.LiveRan || !d.FingerprintRan {
			t.Fatalf("session follow-up %+v, %v", d, err)
		}
	}
	check()
	if allocs := testing.AllocsPerRun(10, check); allocs != 0 {
		t.Fatalf("session follow-up allocated %.1f times per run, want 0", allocs)
	}
}

// TestServedFullAcceptAllocFree pins a full accept — band-pass, both
// liveness gates, GCC/SRP features and the classifier — at zero
// allocations. Online adaptation is off: its accept hook copies each
// accepted feature vector into buffers recycled from its last
// candidate build, and allocates until a first build has run
// (registry's TestAdaptObserveAllocFree pins the warm hook).
func TestServedFullAcceptAllocFree(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	enr := servedEnrollment(t)
	sys := servedSystem(t, enr, servedOptions{noSessions: true, noAdapt: true})
	p := sys.NewPreprocessor()
	ctx := context.Background()
	rec := servedCaptureNamed(t, servedCaptures(t), "facing-1m")
	check := func() {
		d, err := sys.ProcessWakeWith(ctx, p, rec)
		if err != nil || d.Reason != core.ReasonAccepted || !d.LiveRan || !d.FingerprintRan || !d.FacingRan {
			t.Fatalf("full accept %+v, %v", d, err)
		}
	}
	check()
	if allocs := testing.AllocsPerRun(10, check); allocs != 0 {
		t.Fatalf("full accept allocated %.1f times per run, want 0", allocs)
	}
}

// TestServedFullAcceptAllocFreeAfterGC pins the same warm full accept
// at zero allocations right after garbage collections. A collection
// empties every sync.Pool, so scratch the decision takes from a pool,
// rather than from the worker's own arena, is allocated again on the
// next decision — which AllocsPerRun, running back to back, never sees.
//
// A collection also wakes the runtime's cleanup of the unique
// package's maps, which allocates on its own goroutine (2 objects per
// collection). The test yields so that it runs before the bracket, and
// keeps the best of three brackets, so a cleanup the scheduler delays
// into one cannot fail the pin; an allocation the decision makes after
// every collection shows in all three.
func TestServedFullAcceptAllocFreeAfterGC(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("race instrumentation allocates; pin holds in normal builds")
	}
	enr := servedEnrollment(t)
	sys := servedSystem(t, enr, servedOptions{noSessions: true, noAdapt: true})
	p := sys.NewPreprocessor()
	ctx := context.Background()
	rec := servedCaptureNamed(t, servedCaptures(t), "facing-1m")
	decide := func() {
		d, err := sys.ProcessWakeWith(ctx, p, rec)
		if err != nil || d.Reason != core.ReasonAccepted || !d.LiveRan || !d.FingerprintRan || !d.FacingRan {
			t.Fatalf("full accept %+v, %v", d, err)
		}
	}
	decide()
	decide()
	var mallocs, bytes uint64
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		runtime.Gosched()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decide()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < mallocs {
			mallocs, bytes = n, after.TotalAlloc-before.TotalAlloc
		}
	}
	if mallocs != 0 {
		t.Fatalf("full accept after GC allocated %d times, %d B in the best of 3 runs; want 0", mallocs, bytes)
	}
}

// TestServedArenaReuseMatchesFresh runs one worker arena over the
// served captures and shorter crops of them, forwards then backwards,
// so each follows both longer and shorter captures: a stale liveness,
// fingerprint or feature buffer would change a score.
func TestServedArenaReuseMatchesFresh(t *testing.T) {
	enr := servedEnrollment(t)
	sys := servedSystem(t, enr, servedOptions{noSessions: true})
	ctx := context.Background()

	var names []string
	var recs []*audio.Recording
	for _, c := range servedCaptures(t) {
		crop := &audio.Recording{SampleRate: c.rec.SampleRate}
		for _, ch := range c.rec.Channels {
			crop.Channels = append(crop.Channels, ch[len(ch)/3:])
		}
		names = append(names, c.name, c.name+"-crop")
		recs = append(recs, c.rec, crop)
	}
	want := make([]core.Decision, len(recs))
	for i, rec := range recs {
		d, err := sys.ProcessWakeWith(ctx, sys.NewPreprocessor(), rec)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want[i] = d
	}
	worker := sys.NewPreprocessor()
	for k := 0; k < 2*len(recs); k++ {
		i := k
		if k >= len(recs) {
			i = 2*len(recs) - 1 - k
		}
		got, err := sys.ProcessWakeWith(ctx, worker, recs[i])
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		core.DecisionsEqual(t, names[i], want[i], got)
	}
}
