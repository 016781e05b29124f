package cluster

import (
	"context"
	"testing"
)

// BenchmarkForwardOverhead compares a decision served by the local
// pool's engine against the same decision forwarded to a peer over
// loopback TCP — the federation tax: one round trip, conn pool,
// breaker and semaphore included. The forward ships the samples in the binary
// peer frame (raw float64 bits).
func BenchmarkForwardOverhead(b *testing.B) {
	rec := testRecording(1)

	b.Run("local", func(b *testing.B) {
		c := newTestCluster(b, []string{"n1", "n2"}, clusterOpts{})
		tenant := c.tenantOwnedBy("n1", "n1")
		c.addTenant("n1", tenant, plainSystem(b))
		engine := c.engine("n1", tenant)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Decide(context.Background(), rec); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The sub-benchmark keeps its "binary" name so recorded runs line
	// up across tags.
	b.Run("binary", func(b *testing.B) {
		c := newTestCluster(b, []string{"n1", "n2"}, clusterOpts{})
		tenant := c.tenantOwnedBy("n1", "n2")
		c.addTenant("n2", tenant, plainSystem(b))
		// Dial the peer connection outside the timed region.
		if _, err := c.nodes["n1"].Decide(context.Background(), tenant, rec); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.nodes["n1"].Decide(context.Background(), tenant, rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
