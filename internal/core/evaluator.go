// Package core implements the paper's primary contribution: the
// BuildRBFModel procedure of §1/§2 that turns a design space, a
// space-filling sample, and a cycle-accurate simulator into an accurate
// non-linear predictive model of CPI — plus its validation loop (random
// test sets, mean/max/std percentage error), the iterative sample-size
// escalation of step 6, and the linear-regression baseline pipeline used
// for the §4.2 comparison.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/sim"
	"predperf/internal/trace"
)

// Pipeline counters (internal/obs). Simulations run vs. cache hits is
// the cost statistic the paper optimizes; single-flight waits say how
// often concurrent workers collided on the same configuration.
var (
	cSims      = obs.NewCounter("core.sims_run")
	cCacheHits = obs.NewCounter("core.sim_cache_hits")
	cSFWaits   = obs.NewCounter("core.singleflight_waits")
	cEvals     = obs.NewCounter("core.evals")
)

// Evaluator produces the response (CPI) at a concrete design point.
// Implementations stand in for the paper's "detailed simulation" step
// and are expected to be deterministic.
type Evaluator interface {
	Eval(cfg design.Config) float64
}

// Metric selects which response a SimEvaluator reports — the paper
// models CPI, and its §6 conclusion notes the same machinery applies to
// power-oriented metrics, which the simulator's activity-based power
// model provides.
type Metric int

const (
	// MetricCPI is cycles per instruction (the paper's response).
	MetricCPI Metric = iota
	// MetricEPI is energy per instruction in nanojoules.
	MetricEPI
	// MetricEDP is the energy-delay product per instruction (nJ·cycles).
	MetricEDP
	// MetricPower is average power in watts at 2 GHz.
	MetricPower
)

func (m Metric) String() string {
	switch m {
	case MetricEPI:
		return "EPI"
	case MetricEDP:
		return "EDP"
	case MetricPower:
		return "power"
	default:
		return "CPI"
	}
}

// ParseMetric maps a metric name to its Metric, case-insensitively. It
// is the inverse of String and accepts the empty string as MetricCPI so
// wire formats can omit the default.
func ParseMetric(s string) (Metric, error) {
	switch strings.ToLower(s) {
	case "", "cpi":
		return MetricCPI, nil
	case "epi":
		return MetricEPI, nil
	case "edp":
		return MetricEDP, nil
	case "power":
		return MetricPower, nil
	default:
		return MetricCPI, fmt.Errorf("core: unknown metric %q (want cpi, epi, edp, or power)", s)
	}
}

// SimEvaluator runs the cycle-level simulator on a fixed benchmark trace
// and memoizes full results by configuration, so repeated model builds
// (e.g. the sample-size sweep of Figure 4) never simulate the same
// machine twice — even across different metrics.
type SimEvaluator struct {
	Benchmark string
	TraceLen  int
	Metric    Metric // response reported by Eval; default MetricCPI

	tr    trace.Trace
	state *simCache // shared across WithMetric views
}

// simCache is the memoization state shared by all metric views of one
// evaluator. Lookups take only a read lock, so concurrent workers that
// hit the cache never serialize on each other; each distinct
// configuration is guarded by a single-flight entry so that concurrent
// misses on the same key run the simulator exactly once (the losers
// block on the entry's Once until the winner publishes the result).
type simCache struct {
	mu    sync.RWMutex
	cache map[string]*simEntry
	sims  int
}

// simEntry is the single-flight slot for one configuration. done flips
// after the result is published, letting the observability layer
// distinguish a plain cache hit from a wait on an in-flight simulation.
type simEntry struct {
	once sync.Once
	done atomic.Bool
	res  sim.Result
}

// NewSimEvaluator builds a CPI evaluator for one of the benchmark
// profiles, on its process-wide cached trace (trace.Cached).
func NewSimEvaluator(benchmark string, traceLen int) (*SimEvaluator, error) {
	tr, err := trace.Cached(benchmark, traceLen)
	if err != nil {
		return nil, err
	}
	return NewTraceEvaluator(benchmark, tr), nil
}

// NewTraceEvaluator builds a CPI evaluator on tr, a trace of the named
// benchmark, which the evaluator keeps as long as it lives.
func NewTraceEvaluator(benchmark string, tr trace.Trace) *SimEvaluator {
	return &SimEvaluator{
		Benchmark: benchmark,
		TraceLen:  len(tr),
		tr:        tr,
		state:     &simCache{cache: map[string]*simEntry{}},
	}
}

// WithMetric returns a view of the evaluator reporting a different
// metric. The simulation cache is shared with the receiver.
func (e *SimEvaluator) WithMetric(m Metric) *SimEvaluator {
	return &SimEvaluator{
		Benchmark: e.Benchmark, TraceLen: e.TraceLen, Metric: m,
		tr: e.tr, state: e.state,
	}
}

// resolve returns the simulator machine description for cfg together
// with its memoized result, constructing the machine description exactly
// once per call (the metric accessors below reuse it). Concurrent misses
// on the same configuration single-flight through the entry's Once.
func (e *SimEvaluator) resolve(cfg design.Config) (sim.Config, sim.Result) {
	sc := sim.FromDesign(cfg)
	sc.WarmupInsts = e.TraceLen / 5 // discard cold-start statistics
	key := cfg.Key()
	st := e.state
	st.mu.RLock()
	ent, ok := st.cache[key]
	st.mu.RUnlock()
	if !ok {
		st.mu.Lock()
		if ent, ok = st.cache[key]; !ok {
			ent = &simEntry{}
			st.cache[key] = ent
		}
		st.mu.Unlock()
	}
	if ok {
		if ent.done.Load() {
			cCacheHits.Inc()
		} else {
			cSFWaits.Inc()
		}
	}
	ent.once.Do(func() {
		ent.res = sim.Run(sc, e.tr)
		ent.done.Store(true)
		cSims.Inc()
		st.mu.Lock()
		st.sims++
		st.mu.Unlock()
	})
	return sc, ent.res
}

// Eval returns the configured metric for cfg, running the simulator on
// a cache miss.
func (e *SimEvaluator) Eval(cfg design.Config) float64 {
	cEvals.Inc()
	sc, res := e.resolve(cfg)
	switch e.Metric {
	case MetricEPI:
		return res.EPI(sc) / 1000 // nJ
	case MetricEDP:
		return res.EDP(sc) / 1000 // nJ·cycles
	case MetricPower:
		return res.AvgPowerW(sc, 2.0)
	default:
		return res.CPI()
	}
}

// Simulations reports how many distinct simulations have been run — the
// "simulation cost" the paper optimizes.
func (e *SimEvaluator) Simulations() int {
	e.state.mu.RLock()
	defer e.state.mu.RUnlock()
	return e.state.sims
}

// Detail returns the full simulator statistics at cfg (memoized; used
// by diagnostics such as the response-surface study of Figure 1).
func (e *SimEvaluator) Detail(cfg design.Config) sim.Result {
	_, res := e.resolve(cfg)
	return res
}

// FuncEvaluator adapts a plain function, for tests and synthetic
// experiments.
type FuncEvaluator func(design.Config) float64

// Eval invokes the function.
func (f FuncEvaluator) Eval(cfg design.Config) float64 { return f(cfg) }

var _ Evaluator = (*SimEvaluator)(nil)
var _ Evaluator = FuncEvaluator(nil)

func (e *SimEvaluator) String() string {
	return fmt.Sprintf("sim(%s, %d insts)", e.Benchmark, e.TraceLen)
}
