package serve

import (
	"context"
	"fmt"
	"testing"

	"headtalk/internal/core"
	"headtalk/internal/metrics"
)

// BenchmarkDecideFused records the fusion tax: a room-level decision
// over 1/2/4 arrays versus the single-array Decide baseline on the same
// engine. Per-array pipelines run concurrently, so the fused latency
// should track the slowest array, not the sum.
func BenchmarkDecideFused(b *testing.B) {
	reg := metrics.NewRegistry()
	sys, err := core.NewSystem(core.Config{Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(Config{System: sys, Workers: 4, QueueSize: 64, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Close()

	b.Run("decide-single", func(b *testing.B) {
		rec := testRecording(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Decide(context.Background(), rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fused-%darray", n), func(b *testing.B) {
			arrays := make([]ArrayInput, n)
			for i := range arrays {
				arrays[i] = ArrayInput{ArrayID: fmt.Sprintf("array-%d", i), Recording: testRecording(uint64(i + 1))}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.DecideFused(context.Background(), arrays); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
