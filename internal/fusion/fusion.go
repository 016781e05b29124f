// Package fusion combines per-array wake decisions into one room-level
// accept/reject. A room with several assistant devices hears the same
// utterance from several vantage points; the orientation margin each
// array reports is a signed confidence ("facing me" vs "facing away"),
// and "Head Orientation Estimation with Distributed Microphones Using
// Speech Radiation Patterns" (PAPERS.md) shows that pooling such
// radiation-pattern evidence across arrays beats any single array. This
// package implements the serving-side version of that result: a
// health-weighted vote over per-array posteriors, failing closed when
// no trustworthy evidence survives.
package fusion

import (
	"headtalk/internal/core"
	"headtalk/internal/mic"
)

// ArrayReport is one array's contribution to a room-level decision.
type ArrayReport struct {
	// ArrayID names the contributing device ("kitchen", "tv-left", ...).
	ArrayID string
	// Decision is the array's own pipeline outcome.
	Decision core.Decision
	// Channels is the array's total microphone count, used with
	// Decision.DegradedChannels to derive the health weight. Zero means
	// unknown and yields full health weight.
	Channels int
	// Weight, when > 0, overrides the derived health weight (callers
	// that ran mic.AssessHealth themselves can pass HealthWeight).
	Weight float64
	// Err marks an array whose decision pipeline failed outright; the
	// report contributes no evidence but stays listed for observability.
	Err error
}

// HealthWeight converts an explicit array-health assessment (from
// mic.AssessHealth) into a fusion weight: the healthy-channel fraction.
func HealthWeight(h mic.ArrayHealth) float64 {
	if len(h.Channels) == 0 {
		return 1
	}
	return float64(len(h.Healthy)) / float64(len(h.Channels))
}

// weight derives the report's effective vote weight.
func (r *ArrayReport) weight() float64 {
	if r.Weight > 0 {
		return r.Weight
	}
	if r.Channels <= 0 {
		return 1
	}
	w := float64(r.Channels-r.Decision.DegradedChannels) / float64(r.Channels)
	if w < 0 {
		return 0
	}
	return w
}

// usable reports whether the array produced evidence worth fusing.
// Hard pipeline failures (bad input, panic, breaker, too degraded to
// decide) carry no orientation or liveness posterior — down-weighting
// them to zero is the "degraded arrays down-weighted" rule taken to its
// limit.
func (r *ArrayReport) usable() bool {
	if r.Err != nil {
		return false
	}
	switch r.Decision.Reason {
	case core.ReasonBadInput, core.ReasonDegraded, core.ReasonPanic,
		core.ReasonUnhealthy, core.ReasonProcessingFail:
		return false
	}
	return true
}

// The fusion vote drops arrays whose health weight falls below
// minWeight, and accepts only when the fused live score reaches
// liveThreshold and the fused orientation margin exceeds
// facingThreshold (any net facing evidence).
const (
	minWeight       = 0.05
	liveThreshold   = 0.5
	facingThreshold = 0
)

// RoomDecision is the fused room-level outcome.
type RoomDecision struct {
	Accepted bool
	Reason   core.Reason
	// FusedFacing is the health-weighted mean orientation margin across
	// arrays whose facing gate ran. Each margin is a signed confidence,
	// so a far array near the decision boundary naturally contributes
	// little while a close, certain array dominates.
	FusedFacing float64
	FacingRan   bool
	// FusedLive is the health-weighted mean live score across arrays
	// whose liveness gate ran.
	FusedLive float64
	LiveRan   bool
	// ArraysUsed counts arrays whose evidence entered the vote;
	// ArraysDropped counts reports discarded as failed or too degraded.
	ArraysUsed    int
	ArraysDropped int
	// BestArray is the used array with the strongest single facing
	// margin (for attribution/debugging).
	BestArray string
}

// Fuse combines per-array reports into one room-level decision. It
// fails closed: no usable arrays, or usable arrays without orientation
// evidence, reject rather than accept on silence.
func Fuse(reports []ArrayReport) RoomDecision {
	var out RoomDecision

	var facingW, facingAcc float64
	var liveW, liveAcc float64
	var bestMargin float64
	for i := range reports {
		r := &reports[i]
		w := r.weight()
		if !r.usable() || w < minWeight {
			out.ArraysDropped++
			continue
		}
		// A tenant-level policy outcome on any array is a room-level
		// policy outcome: a muted room stays muted no matter how many
		// arrays heard the wake word, and an already-open session keeps
		// its facing shortcut.
		switch r.Decision.Reason {
		case core.ReasonMuted:
			return RoomDecision{Reason: core.ReasonMuted, ArraysUsed: 1, ArraysDropped: len(reports) - 1, BestArray: r.ArrayID}
		case core.ReasonSessionActive, core.ReasonNormalMode:
			return RoomDecision{Accepted: true, Reason: r.Decision.Reason, ArraysUsed: 1, ArraysDropped: len(reports) - 1, BestArray: r.ArrayID}
		}
		out.ArraysUsed++
		if r.Decision.LiveRan {
			liveAcc += w * r.Decision.LiveScore
			liveW += w
		}
		if r.Decision.FacingRan {
			facingAcc += w * r.Decision.FacingScore
			facingW += w
			if out.BestArray == "" || r.Decision.FacingScore > bestMargin {
				bestMargin = r.Decision.FacingScore
				out.BestArray = r.ArrayID
			}
		}
	}

	if out.ArraysUsed == 0 {
		out.Reason = core.ReasonDegraded
		return out
	}
	if liveW > 0 {
		out.LiveRan = true
		out.FusedLive = liveAcc / liveW
		if out.FusedLive < liveThreshold {
			out.Reason = core.ReasonNotLive
			return out
		}
	}
	if facingW == 0 {
		// Arrays decided, but none ran the orientation gate (e.g. no
		// model enrolled anywhere): a privacy control fails closed.
		out.Reason = core.ReasonNoOrientation
		return out
	}
	out.FacingRan = true
	out.FusedFacing = facingAcc / facingW
	if out.FusedFacing <= facingThreshold {
		out.Reason = core.ReasonNotFacing
		return out
	}
	out.Accepted = true
	out.Reason = core.ReasonAccepted
	return out
}
