// Package faultinject is a test-only fault injector for the HeadTalk
// serving stack. It produces a hook compatible with
// serve.Config.FaultHook that deterministically corrupts a configurable
// fraction of recordings in flight — NaN frames, dropped (silenced)
// channels, induced panics, slow stages — so chaos tests can assert the
// system's fail-closed invariants under -race: every fault must surface
// as a rejected decision or a typed error, never an accept, and never a
// lost submission or a dead worker.
//
// The injector never mutates the recording it is handed: faults that
// change samples are applied to a clone, because the same *Recording
// may be submitted concurrently by other goroutines.
package faultinject

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"headtalk/internal/audio"
)

// Config selects which faults fire and how often. Each Every field is a
// modulus over the injector's call counter: 0 disables the fault, N
// fires it on every Nth call (1 = every call). Faults are independent —
// a call number divisible by several moduli suffers several faults.
type Config struct {
	// PanicEvery induces a pipeline panic (after any other faults on
	// the same call have been applied).
	PanicEvery int
	// CorruptEvery overwrites a span of samples with NaN on every
	// channel — the shape of a DMA/transport glitch. Input validation
	// must reject (or repair) these.
	CorruptEvery int
	// DropChannelsEvery silences the channels listed in DropChannels
	// (flatline at zero — how a dead MEMS element presents). Channel
	// health must score them dead and degrade the array.
	DropChannelsEvery int
	// DropChannels are the channel indices DropChannelsEvery silences.
	// Indices out of range are ignored.
	DropChannels []int
	// SlowEvery stalls the hook for Delay — a slow stage, for deadline
	// and queue-backpressure behavior.
	SlowEvery int
	// Delay is the SlowEvery stall (default 10 ms).
	Delay time.Duration
}

// Stats counts what the injector has done.
type Stats struct {
	// Calls is how many recordings passed through the hook while
	// enabled (disabled calls are not counted).
	Calls uint64
	// Panics, Corrupted, Dropped and Slowed count applied faults.
	Panics    uint64
	Corrupted uint64
	Dropped   uint64
	Slowed    uint64
}

// Injector deterministically applies faults per Config. All methods are
// safe for concurrent use; the call counter makes the fault sequence
// reproducible for a fixed submission order.
type Injector struct {
	cfg     Config
	enabled atomic.Bool

	calls     atomic.Uint64
	panics    atomic.Uint64
	corrupted atomic.Uint64
	dropped   atomic.Uint64
	slowed    atomic.Uint64
}

// New builds an enabled injector.
func New(cfg Config) *Injector {
	if cfg.Delay == 0 {
		cfg.Delay = 10 * time.Millisecond
	}
	in := &Injector{cfg: cfg}
	in.enabled.Store(true)
	return in
}

// SetEnabled toggles fault injection; a disabled injector passes every
// recording through untouched and stops counting calls.
func (in *Injector) SetEnabled(on bool) { in.enabled.Store(on) }

// Stats snapshots the fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Calls:     in.calls.Load(),
		Panics:    in.panics.Load(),
		Corrupted: in.corrupted.Load(),
		Dropped:   in.dropped.Load(),
		Slowed:    in.slowed.Load(),
	}
}

// fires reports whether a fault with modulus every fires on call n.
func fires(n uint64, every int) bool {
	return every > 0 && n%uint64(every) == 0
}

// Hook returns the fault-application function to install as
// serve.Config.FaultHook.
func (in *Injector) Hook() func(*audio.Recording) *audio.Recording {
	return func(rec *audio.Recording) *audio.Recording {
		if !in.enabled.Load() {
			return rec
		}
		n := in.calls.Add(1)
		if fires(n, in.cfg.SlowEvery) {
			in.slowed.Add(1)
			time.Sleep(in.cfg.Delay)
		}
		corrupt := fires(n, in.cfg.CorruptEvery)
		drop := fires(n, in.cfg.DropChannelsEvery) && len(in.cfg.DropChannels) > 0
		if (corrupt || drop) && rec != nil {
			rec = cloneRecording(rec) // never mutate the caller's recording
			if corrupt {
				in.corrupted.Add(1)
				corruptFrames(rec)
			}
			if drop {
				in.dropped.Add(1)
				silenceChannels(rec, in.cfg.DropChannels)
			}
		}
		if fires(n, in.cfg.PanicEvery) {
			in.panics.Add(1)
			panic(fmt.Sprintf("faultinject: induced panic on call %d", n))
		}
		return rec
	}
}

// cloneRecording returns a deep copy of rec.
func cloneRecording(rec *audio.Recording) *audio.Recording {
	out := audio.NewRecording(rec.SampleRate, len(rec.Channels), rec.Len())
	for i, ch := range rec.Channels {
		copy(out.Channels[i], ch)
	}
	return out
}

// corruptFrames overwrites the middle eighth of every channel with NaN.
func corruptFrames(rec *audio.Recording) {
	for _, ch := range rec.Channels {
		if len(ch) == 0 {
			continue
		}
		lo := len(ch) / 2
		hi := lo + len(ch)/8 + 1
		if hi > len(ch) {
			hi = len(ch)
		}
		for i := lo; i < hi; i++ {
			ch[i] = math.NaN()
		}
	}
}

// silenceChannels flatlines the listed channels at zero.
func silenceChannels(rec *audio.Recording, idx []int) {
	for _, c := range idx {
		if c < 0 || c >= len(rec.Channels) {
			continue
		}
		ch := rec.Channels[c]
		for i := range ch {
			ch[i] = 0
		}
	}
}
