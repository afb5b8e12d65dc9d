// Package evaltest is a conformance suite for core.Evaluator
// implementations. The Evaluator interface is the seam the whole
// pipeline hangs off — model builds, validation, search verification,
// shadow re-simulation — so every implementation (the in-process
// core.SimEvaluator, the farm-backed cluster.RemoteEvaluator) must
// honor the same contract: deterministic values, coherent
// memoization, single-flight de-duplication of concurrent misses, and
// well-defined failure behavior. The suite runs against a Harness so
// each package exercises its own construction without import cycles.
package evaltest

import (
	"math"
	"sync"
	"testing"

	"predperf/internal/core"
	"predperf/internal/design"
)

// Harness adapts one Evaluator implementation to the suite.
type Harness struct {
	// New returns a fresh evaluator over the same deterministic
	// backend; two evaluators from one harness must agree bitwise.
	New func(t *testing.T) core.Evaluator
	// Sims reports how many backend simulations ev has paid for
	// (core.SimEvaluator.Simulations / cluster.RemoteEvaluator
	// .Simulations). nil skips the cost-accounting assertions.
	Sims func(ev core.Evaluator) int
	// Canceled, when non-nil, returns an evaluator whose context (or
	// equivalent lifetime) is already over, plus the error surface to
	// inspect afterward. The suite asserts Eval degrades to NaN and the
	// error is reported rather than swallowed. nil skips the subtest
	// (core.SimEvaluator has no cancellation surface).
	Canceled func(t *testing.T) (ev core.Evaluator, err func() error)
}

// Configs returns n distinct valid design points, deterministically.
// Every field stays positive and ROB varies, so keys never collide.
func Configs(n int) []design.Config {
	out := make([]design.Config, n)
	for i := range out {
		out[i] = design.Config{
			PipeDepth: 8 + (i%9)*2,
			ROBSize:   64 + 8*i,
			IQSize:    32 + 4*(i%5),
			LSQSize:   32,
			L2SizeKB:  1024 << (i % 3),
			L2Lat:     8 + i%6,
			IL1SizeKB: 32,
			DL1SizeKB: 32 << (i % 2),
			DL1Lat:    2 + i%3,
		}
	}
	return out
}

// Run executes the conformance suite as subtests of t.
func Run(t *testing.T, h Harness) {
	t.Run("deterministic", func(t *testing.T) { deterministic(t, h) })
	t.Run("cache_coherence", func(t *testing.T) { cacheCoherence(t, h) })
	t.Run("single_flight", func(t *testing.T) { singleFlight(t, h) })
	t.Run("distinct_configs", func(t *testing.T) { distinctConfigs(t, h) })
	if h.Canceled != nil {
		t.Run("cancellation", func(t *testing.T) { cancellation(t, h) })
	}
}

// deterministic: the same configuration yields the same bits — within
// one evaluator and across fresh instances over the same backend.
func deterministic(t *testing.T, h Harness) {
	cfgs := Configs(4)
	a, b := h.New(t), h.New(t)
	for _, cfg := range cfgs {
		v1 := a.Eval(cfg)
		if math.IsNaN(v1) {
			t.Fatalf("Eval(%v) = NaN on the happy path", cfg)
		}
		if v2 := a.Eval(cfg); v2 != v1 {
			t.Fatalf("same evaluator disagreed with itself: %v then %v", v1, v2)
		}
		if v3 := b.Eval(cfg); v3 != v1 {
			t.Fatalf("fresh evaluator disagreed: %v vs %v", v3, v1)
		}
	}
}

// cacheCoherence: re-evaluating a working set in a different order
// returns identical values without paying for new simulations.
func cacheCoherence(t *testing.T, h Harness) {
	ev := h.New(t)
	cfgs := Configs(12)
	first := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		first[i] = ev.Eval(cfg)
	}
	var before int
	if h.Sims != nil {
		before = h.Sims(ev)
		if before != len(cfgs) {
			t.Fatalf("first pass paid %d simulations for %d configs", before, len(cfgs))
		}
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		if got := ev.Eval(cfgs[i]); got != first[i] {
			t.Fatalf("config %d: cached value %v != first value %v", i, got, first[i])
		}
	}
	if h.Sims != nil {
		if after := h.Sims(ev); after != before {
			t.Fatalf("second pass re-simulated: %d → %d", before, after)
		}
	}
}

// singleFlight: concurrent misses on one configuration agree and cost
// one simulation.
func singleFlight(t *testing.T, h Harness) {
	ev := h.New(t)
	cfg := Configs(1)[0]
	const workers = 32
	got := make([]float64, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = ev.Eval(cfg)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatalf("worker %d saw %v, worker 0 saw %v", i, got[i], got[0])
		}
	}
	if h.Sims != nil {
		if n := h.Sims(ev); n != 1 {
			t.Fatalf("%d concurrent evals of one config paid %d simulations, want 1", workers, n)
		}
	}
}

// distinctConfigs: distinct design points are evaluated independently
// (no key collisions) and each costs exactly one simulation.
func distinctConfigs(t *testing.T, h Harness) {
	ev := h.New(t)
	cfgs := Configs(16)
	seen := map[string]float64{}
	for _, cfg := range cfgs {
		seen[cfg.Key()] = ev.Eval(cfg)
	}
	if len(seen) != len(cfgs) {
		t.Fatalf("config keys collided: %d unique of %d", len(seen), len(cfgs))
	}
	if h.Sims != nil {
		if n := h.Sims(ev); n != len(cfgs) {
			t.Fatalf("%d distinct configs paid %d simulations", len(cfgs), n)
		}
	}
}

// cancellation: an evaluator whose lifetime is over answers NaN (the
// interface has no error channel) and reports the failure out-of-band
// instead of hanging or fabricating a value.
func cancellation(t *testing.T, h Harness) {
	ev, errFn := h.Canceled(t)
	if v := ev.Eval(Configs(1)[0]); !math.IsNaN(v) {
		t.Fatalf("canceled evaluator answered %v, want NaN", v)
	}
	if errFn == nil {
		t.Fatal("harness returned no error surface")
	}
	if err := errFn(); err == nil {
		t.Fatal("canceled evaluator reported no error")
	}
}
