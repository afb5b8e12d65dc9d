// Package cluster is the horizontal scale-out layer of the pipeline:
// a coordinator/worker topology built on the same stdlib net/http and
// internal/obs stack as internal/serve.
//
// Two roles live here:
//
//   - Sim workers (Worker, cmd/simworker) expose the cycle-level
//     simulator as a remote service: POST /v1/eval scores one or many
//     configurations on a benchmark trace. RemoteEvaluator speaks that
//     protocol through a health-gated Pool and implements
//     core.Evaluator, so every simulator consumer — BuildToAccuracy,
//     shadow re-simulation, /v1/search verification — fans out to
//     dedicated machines instead of the serving host. Workers are
//     deterministic, so a remote build is bit-identical to a local one.
//
//   - The shard router (Router, cmd/predrouter) fronts a set of
//     predserve shards: models are consistent-hash assigned to shards
//     (Ring), /v1/predict and /v1/search are forwarded to the owning
//     shard with failover to the next shard on 5xx/timeout, and the
//     model generation vector piggybacked on /v1/models detects hot
//     swaps and triggers re-sync of the failover shard.
//
// Both roles thread X-Request-Id and the obs traceparent header through
// every hop (the edge's sampling decision rides the header, and sampled
// callees return their span forests for grafting into the caller's
// trace), export cluster.* counters and histograms, and answer
// /healthz, /metricz, /tracez, and a /statusz topology page.
package cluster

import (
	"fmt"
	"math"
	"time"

	"predperf/internal/design"
)

// WireConfig is the JSON shape of a processor configuration on every
// cluster hop, using the same short field names as predserve's predict
// API and the predperf CLI.
type WireConfig struct {
	Depth  int `json:"depth"`
	ROB    int `json:"rob"`
	IQ     int `json:"iq"`
	LSQ    int `json:"lsq"`
	L2KB   int `json:"l2kb"`
	L2Lat  int `json:"l2lat"`
	IL1KB  int `json:"il1kb"`
	DL1KB  int `json:"dl1kb"`
	DL1Lat int `json:"dl1lat"`
}

// FromConfig converts a concrete design configuration to its wire form.
func FromConfig(c design.Config) WireConfig {
	return WireConfig{
		Depth: c.PipeDepth, ROB: c.ROBSize, IQ: c.IQSize, LSQ: c.LSQSize,
		L2KB: c.L2SizeKB, L2Lat: c.L2Lat, IL1KB: c.IL1SizeKB, DL1KB: c.DL1SizeKB, DL1Lat: c.DL1Lat,
	}
}

// Config converts the wire form back to a design configuration.
func (w WireConfig) Config() design.Config {
	return design.Config{
		PipeDepth: w.Depth, ROBSize: w.ROB, IQSize: w.IQ, LSQSize: w.LSQ,
		L2SizeKB: w.L2KB, L2Lat: w.L2Lat, IL1SizeKB: w.IL1KB, DL1SizeKB: w.DL1KB, DL1Lat: w.DL1Lat,
	}
}

// Validate rejects configurations the design space cannot normalize:
// every field must be positive (IQ/LSQ sizes are re-expressed as ROB
// fractions, so a zero ROB would divide by zero).
func (w WireConfig) Validate() error {
	for _, f := range w.fields() {
		if f.v <= 0 {
			return fmt.Errorf("field %q must be positive, got %d", f.name, f.v)
		}
	}
	return nil
}

// wireField is one WireConfig field and its JSON name.
type wireField struct {
	name string
	v    int
}

// fields lists the config's fields in declaration order.
func (w WireConfig) fields() [9]wireField {
	return [9]wireField{
		{"depth", w.Depth}, {"rob", w.ROB}, {"iq", w.IQ}, {"lsq", w.LSQ},
		{"l2kb", w.L2KB}, {"l2lat", w.L2Lat}, {"il1kb", w.IL1KB}, {"dl1kb", w.DL1KB}, {"dl1lat", w.DL1Lat},
	}
}

// EvalRequest is the body of POST /v1/eval: evaluate every config on
// the named benchmark's trace and report the selected metric. One
// request maps to one (benchmark, trace length, metric) triple so the
// worker can serve it from a single memoized evaluator.
type EvalRequest struct {
	Benchmark string `json:"benchmark"`
	// TraceLen is the trace length in dynamic instructions; it selects
	// (and keys) the worker-side evaluator exactly as it does locally.
	TraceLen int `json:"trace_len"`
	// Metric is "cpi" (default when empty), "epi", "edp", or "power".
	Metric  string       `json:"metric,omitempty"`
	Configs []WireConfig `json:"configs"`
}

// EvalResponse answers an EvalRequest. Values[i] is the response for
// Configs[i]; the order is preserved and the result is bit-identical to
// running core.SimEvaluator locally on the same inputs.
type EvalResponse struct {
	Values []float64 `json:"values"`
	// Sims counts the simulations this request actually ran on the
	// worker (the rest were memoization hits), the same cost statistic
	// the paper optimizes.
	Sims int `json:"sims"`
	// Worker identifies the responding worker for tracing.
	Worker string `json:"worker,omitempty"`
}

// RetryAfterSeconds renders a backoff hint as a Retry-After header
// value: the duration rounded up to whole seconds, minimum 1 (the
// header has one-second resolution and "0" invites an immediate retry
// of a condition that has not had time to clear).
func RetryAfterSeconds(d time.Duration) string {
	if d <= 0 {
		return "1"
	}
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
