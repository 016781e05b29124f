package mic

import (
	"fmt"
	"math"
	"sort"

	"headtalk/internal/audio"
)

// Channel health scoring for degraded-array operation. Deployed arrays
// lose microphones: MEMS elements die (flatline at zero), ADC channels
// stick (flatline at a DC offset), and individual capsules drift to a
// fraction of their siblings' sensitivity (low SNR). The paper's
// orientation features are computed across microphone *pairs*, so one
// bad channel poisons every pair it joins — the serving path must know
// which channels to trust before SRP-PHAT runs. AssessHealth is that
// check: cheap (one pass per channel), dependency-free, and suitable
// for running on every wake-word decision.

// ChannelState classifies one microphone channel.
type ChannelState int

// Channel states.
const (
	// ChannelOK carries plausible signal.
	ChannelOK ChannelState = iota
	// ChannelDead is silent (RMS at the noise floor of a disconnected
	// element).
	ChannelDead
	// ChannelStuck is pinned at a constant non-zero value (stuck ADC
	// code / railed DC offset).
	ChannelStuck
	// ChannelLowSNR carries signal far weaker than its siblings —
	// usable level lost, pair correlations unreliable.
	ChannelLowSNR
)

// String returns the state name.
func (s ChannelState) String() string {
	switch s {
	case ChannelOK:
		return "ok"
	case ChannelDead:
		return "dead"
	case ChannelStuck:
		return "stuck"
	case ChannelLowSNR:
		return "low_snr"
	default:
		return "unknown"
	}
}

// A channel whose AC-coupled RMS is below deadRMS of full scale (far
// below any real room's noise floor through a live microphone) counts
// as dead; one whose peak-to-peak range is below stuckRange counts as
// flatlined.
const (
	deadRMS    = 1e-5
	stuckRange = 1e-6
)

// HealthConfig tunes AssessHealth. The zero value applies the defaults
// noted on each field.
type HealthConfig struct {
	// LowSNRRatio flags a channel whose AC RMS falls below this
	// fraction of the median live channel's RMS (default 0.05, i.e.
	// ~26 dB below the array median). Negative disables the check.
	LowSNRRatio float64
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.LowSNRRatio == 0 {
		c.LowSNRRatio = 0.05
	}
	return c
}

// ChannelHealth is the per-channel assessment.
type ChannelHealth struct {
	Index int
	State ChannelState
	// RMS is the AC-coupled (mean-removed) RMS level.
	RMS float64
	// Range is the peak-to-peak sample range.
	Range float64
}

// ArrayHealth is the whole-array assessment.
type ArrayHealth struct {
	Channels []ChannelHealth
	// Healthy lists the indices of ChannelOK channels, ascending.
	Healthy []int
	// live is reused scratch for the low-SNR median (AssessHealthInto).
	live []float64
}

// Degraded returns the number of non-OK channels.
func (h ArrayHealth) Degraded() int { return len(h.Channels) - len(h.Healthy) }

// String summarizes the assessment ("6 channels, 2 degraded: 1=dead 4=low_snr").
func (h ArrayHealth) String() string {
	if h.Degraded() == 0 {
		return fmt.Sprintf("%d channels, all healthy", len(h.Channels))
	}
	s := fmt.Sprintf("%d channels, %d degraded:", len(h.Channels), h.Degraded())
	for _, ch := range h.Channels {
		if ch.State != ChannelOK {
			s += fmt.Sprintf(" %d=%s", ch.Index, ch.State)
		}
	}
	return s
}

// AssessHealth scores every channel of a recording. Channels that are
// non-finite are treated as dead (the input-validation stage rejects
// those recordings anyway; health scoring must not propagate NaN into
// its own statistics).
func AssessHealth(rec *audio.Recording, cfg HealthConfig) ArrayHealth {
	var h ArrayHealth
	AssessHealthInto(&h, rec, cfg)
	return h
}

// AssessHealthInto is AssessHealth writing into h, reusing its slices.
// With a caller-owned h whose capacities cover the channel count it
// performs no allocation — the shape the serving path's per-worker
// arenas rely on, since health runs on every wake-word decision.
func AssessHealthInto(h *ArrayHealth, rec *audio.Recording, cfg HealthConfig) {
	cfg = cfg.withDefaults()
	if cap(h.Channels) < len(rec.Channels) {
		h.Channels = make([]ChannelHealth, len(rec.Channels))
	}
	h.Channels = h.Channels[:len(rec.Channels)]
	h.Healthy = h.Healthy[:0]
	for i, ch := range rec.Channels {
		h.Channels[i] = assessChannel(i, ch)
	}
	// Low-SNR detection is relative: compare each surviving channel to
	// the median RMS of all channels still alive after the dead/stuck
	// pass, so one loud channel cannot mask a quiet one and one dead
	// channel cannot drag the reference down.
	if cfg.LowSNRRatio > 0 {
		live := h.live[:0]
		for _, c := range h.Channels {
			if c.State == ChannelOK {
				live = append(live, c.RMS)
			}
		}
		h.live = live
		if len(live) >= 2 {
			sort.Float64s(live)
			median := live[len(live)/2]
			for i := range h.Channels {
				c := &h.Channels[i]
				if c.State == ChannelOK && c.RMS < cfg.LowSNRRatio*median {
					c.State = ChannelLowSNR
				}
			}
		}
	}
	for _, c := range h.Channels {
		if c.State == ChannelOK {
			h.Healthy = append(h.Healthy, c.Index)
		}
	}
}

// assessChannel computes one channel's mean, range and AC RMS in a
// single pass and applies the dead/stuck thresholds.
func assessChannel(idx int, ch []float64) ChannelHealth {
	out := ChannelHealth{Index: idx}
	if len(ch) == 0 {
		out.State = ChannelDead
		return out
	}
	// Both passes run four samples at a time: a block whose sum is
	// finite provably contains only finite samples (NaN and ±Inf are
	// absorbing under addition), so the common all-clean case skips the
	// per-sample finiteness checks. Suspect blocks — and the tail — fall
	// back to the exact per-sample scan. The running accumulators are
	// updated in sample order either way, so the statistics are bit
	// identical to the one-sample-at-a-time loop.
	lo, hi := math.Inf(1), math.Inf(-1)
	var sum float64
	finite := 0
	i := 0
	for ; i+4 <= len(ch); i += 4 {
		v0, v1, v2, v3 := ch[i], ch[i+1], ch[i+2], ch[i+3]
		if s := v0 + v1 + v2 + v3; s-s == 0 {
			finite += 4
			sum += v0
			sum += v1
			sum += v2
			sum += v3
			if v0 < lo {
				lo = v0
			}
			if v0 > hi {
				hi = v0
			}
			if v1 < lo {
				lo = v1
			}
			if v1 > hi {
				hi = v1
			}
			if v2 < lo {
				lo = v2
			}
			if v2 > hi {
				hi = v2
			}
			if v3 < lo {
				lo = v3
			}
			if v3 > hi {
				hi = v3
			}
			continue
		}
		for _, v := range ch[i : i+4] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			finite++
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	for _, v := range ch[i:] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		finite++
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if finite == 0 {
		out.State = ChannelDead
		return out
	}
	mean := sum / float64(finite)
	var acc float64
	i = 0
	for ; i+4 <= len(ch); i += 4 {
		v0, v1, v2, v3 := ch[i], ch[i+1], ch[i+2], ch[i+3]
		if s := v0 + v1 + v2 + v3; s-s == 0 {
			d0, d1, d2, d3 := v0-mean, v1-mean, v2-mean, v3-mean
			acc += d0 * d0
			acc += d1 * d1
			acc += d2 * d2
			acc += d3 * d3
			continue
		}
		for _, v := range ch[i : i+4] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			d := v - mean
			acc += d * d
		}
	}
	for _, v := range ch[i:] {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		d := v - mean
		acc += d * d
	}
	out.RMS = math.Sqrt(acc / float64(finite))
	out.Range = hi - lo
	switch {
	case out.Range < stuckRange && math.Abs(mean) <= deadRMS:
		out.State = ChannelDead // flat at zero: disconnected
	case out.Range < stuckRange:
		out.State = ChannelStuck // flat at an offset: stuck code
	case out.RMS < deadRMS:
		out.State = ChannelDead
	default:
		out.State = ChannelOK
	}
	return out
}
