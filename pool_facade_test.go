package headtalk

// Tests for the multi-tenant facade surface: NewPool/TenantConfig and
// the consolidated error taxonomy (sentinels matched with errors.Is,
// typed errors with errors.As).

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

func facadeRecording(seed uint64) *Recording {
	rng := rand.New(rand.NewPCG(seed, 7))
	rec := &Recording{SampleRate: 48000, Channels: make([][]float64, 4)}
	for c := range rec.Channels {
		rec.Channels[c] = make([]float64, 4800)
		for i := range rec.Channels[c] {
			rec.Channels[c][i] = 0.2 * rng.NormFloat64()
		}
	}
	return rec
}

func TestPoolFacade(t *testing.T) {
	p := NewPool()
	t.Cleanup(func() { _ = p.Close() })
	for _, id := range []string{"lab", "home"} {
		sys, err := NewSystem(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AddTenant(TenantConfig{ID: id, System: sys, Workers: 2, QueueSize: 8}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := p.Decide(context.Background(), "lab", facadeRecording(1))
	if err != nil || !d.Accepted {
		t.Fatalf("pool decide = %+v, %v", d, err)
	}
	if _, err := p.Decide(context.Background(), "ghost", facadeRecording(2)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant = %v, want ErrUnknownTenant", err)
	}
	sys, _ := NewSystem(Config{})
	if _, err := p.AddTenant(TenantConfig{ID: "lab", System: sys}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate tenant = %v, want ErrTenantExists", err)
	}
	var ph PoolHealth = p.HealthSnapshot()
	if !ph.Healthy || ph.TenantCount != 2 {
		t.Fatalf("pool health %+v", ph)
	}
	var eh EngineHealth = ph.Tenants["home"]
	if !eh.Healthy {
		t.Fatalf("tenant health %+v", eh)
	}
	if err := p.RemoveTenant(context.Background(), "home"); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Decide(context.Background(), "lab", facadeRecording(3)); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("closed pool = %v, want ErrPoolClosed", err)
	}
}

// TestErrorTaxonomy pins the facade's error contract: each re-exported
// error matches its producing layer through errors.Is/As, so callers
// can depend on package headtalk alone.
func TestErrorTaxonomy(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{System: sys, Workers: 1, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = eng.Close() })

	// ErrBadInput: a 2 ms capture is far below the hardening minimum.
	short := &Recording{SampleRate: 48000, Channels: [][]float64{make([]float64, 100), make([]float64, 100)}}
	_, err = eng.Decide(context.Background(), short)
	var bad *ErrBadInput
	if !errors.As(err, &bad) {
		t.Fatalf("short capture err = %v, want *ErrBadInput in chain", err)
	}
	if ok2, _ := AsBadInput(err); ok2 == nil {
		t.Fatalf("AsBadInput missed %v", err)
	}

	// ErrMalformedWAV: typed decode failures from ReadWAV surface
	// through the same taxonomy.
	if _, werr := ReadWAV(strings.NewReader("not a wav")); werr == nil {
		t.Fatal("garbage WAV decoded")
	} else {
		var mw *ErrMalformedWAV
		if !errors.As(werr, &mw) {
			t.Fatalf("wav err = %v, want *ErrMalformedWAV", werr)
		}
	}

	// ErrBreakerOpen: force the breaker and observe the fast reject.
	eng.TripBreaker()
	if _, berr := eng.Decide(context.Background(), facadeRecording(9)); !errors.Is(berr, ErrBreakerOpen) {
		t.Fatalf("tripped engine err = %v, want ErrBreakerOpen", berr)
	}
	eng.ResetBreaker()

	// ErrEngineClosed after Close.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, cerr := eng.Submit(context.Background(), ServeRequest{Recording: facadeRecording(10)}); !errors.Is(cerr, ErrEngineClosed) {
		t.Fatalf("closed engine err = %v, want ErrEngineClosed", cerr)
	}

	// ErrPipelinePanic is a type; IsPanic must recognize a wrapped one.
	pe := &ErrPipelinePanic{Value: "boom"}
	if !IsPanic(pe) || IsPanic(ErrQueueFull) {
		t.Fatal("IsPanic misclassifies")
	}
}
