package obs

import (
	"context"
	"testing"
)

// BenchmarkObsOverhead measures the per-call cost of each instrumentation
// primitive in both states the pipeline runs in: disabled (the default —
// this is the overhead every simulation pays) and enabled/traced (the
// overhead when -report/-trace is on). cmd/bench reports the overhead of
// tracing whole operations (bench.trace_overhead_pct).
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("counter/disabled", func(b *testing.B) {
		Disable()
		c := NewCounter("bench.counter")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter/enabled", func(b *testing.B) {
		Enable()
		defer Disable()
		c := NewCounter("bench.counter")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram/observe", func(b *testing.B) {
		h := NewHistogram("bench.hist", DefLatencyBuckets)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(0.001)
		}
	})
	b.Run("histogram/observe-parallel", func(b *testing.B) {
		h := NewHistogram("bench.hist_par", DefLatencyBuckets)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				h.Observe(0.001)
			}
		})
	})
	b.Run("span/disabled", func(b *testing.B) {
		Disable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			end := StartSpan("bench.span")
			end()
		}
	})
	b.Run("span/enabled", func(b *testing.B) {
		Enable()
		defer Disable()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			end := StartSpan("bench.span")
			end()
		}
	})
	b.Run("spanctx/no-trace-disabled", func(b *testing.B) {
		Disable()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, end := StartSpanCtx(ctx, "bench.spanctx")
			end()
		}
	})
	b.Run("spanctx/traced", func(b *testing.B) {
		Disable()
		ctx := WithTrace(context.Background(), NewTrace("bench"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, end := StartSpanCtx(ctx, "bench.spanctx")
			end()
		}
	})
}
