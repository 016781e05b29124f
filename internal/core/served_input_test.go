package core_test

import (
	"context"
	"math"
	"testing"

	"headtalk/internal/core"
)

// TestProcessWakeLeavesInputIntact pins that a decision never writes
// its recording: the band-pass and the transforms run in place, but on
// the worker's own buffers. Every served capture goes through the
// served system in golden order, so the sequence covers the accept,
// session follow-up, not_live and not_facing paths (and the
// fingerprint and degraded rejections on the way); after each decision
// every sample must keep its bits.
func TestProcessWakeLeavesInputIntact(t *testing.T) {
	enr := servedEnrollment(t)
	sys := servedSystem(t, enr, servedOptions{})
	ctx := context.Background()
	seen := map[core.Reason]bool{}
	for _, c := range servedCaptures(t) {
		before := make([][]float64, len(c.rec.Channels))
		for i, ch := range c.rec.Channels {
			before[i] = append([]float64(nil), ch...)
		}
		rate := c.rec.SampleRate
		d, err := sys.ProcessWake(ctx, c.rec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		seen[d.Reason] = true
		if c.rec.SampleRate != rate || len(c.rec.Channels) != len(before) {
			t.Fatalf("%s (%s): recording reshaped", c.name, d.Reason.Slug())
		}
		for i, ch := range c.rec.Channels {
			if len(ch) != len(before[i]) {
				t.Fatalf("%s (%s): channel %d length %d, want %d", c.name, d.Reason.Slug(), i, len(ch), len(before[i]))
			}
			for n, v := range ch {
				if math.Float64bits(v) != math.Float64bits(before[i][n]) {
					t.Fatalf("%s (%s): channel %d sample %d = %v, want %v", c.name, d.Reason.Slug(), i, n, v, before[i][n])
				}
			}
		}
	}
	for _, r := range []core.Reason{core.ReasonAccepted, core.ReasonSessionActive, core.ReasonNotLive, core.ReasonNotFacing} {
		if !seen[r] {
			t.Errorf("no served capture took the %s path", r.Slug())
		}
	}
}
