package obs

import (
	"context"
	"testing"
)

// benchSampled keeps the sampler benchmark's decision live.
var benchSampled bool

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
	b.Run("histogram/observe-exemplar", func(b *testing.B) {
		h := NewHistogram("bench.hist_exemplar", DefLatencyBuckets)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ObserveWithExemplar(0.001, "bench-trace")
		}
	})
	b.Run("sampler/partial", func(b *testing.B) {
		s := NewSampler(0.5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSampled = s.Sample("req-0123456789abcdef")
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
	b.Run("spanctx/no-trace-enabled", func(b *testing.B) {
		Enable()
		defer Disable()
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
	b.Run("span-trailer/round-trip", func(b *testing.B) {
		// The forest a shard returns on the X-Trace-Spans trailer for a
		// routed single prediction: its encode on the shard, and the
		// router's decode and graft.
		forest := []WireSpan{{ID: 1, Name: "serve.predict", Start: 1760700000123456789, Dur: 41234}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spans, err := DecodeSpans(EncodeSpans(forest))
			if err != nil {
				b.Fatal(err)
			}
			NewTrace("bench").Graft(1, spans, 0)
		}
	})
}
