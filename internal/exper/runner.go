package exper

import (
	"context"
	"fmt"
	"sync"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
)

// Runner executes experiment drivers, sharing evaluators (and their
// simulation memoization), test sets, and fitted models across the
// tables and figures that reuse them. Every shared artifact sits behind
// a single-flight entry, so drivers that fan benchmarks and sample sizes
// out across workers never build the same evaluator, test set, or model
// twice: concurrent requests for one key block on the first builder and
// share its result.
type Runner struct {
	Scale Scale

	mu     sync.Mutex
	evs    map[string]*flight[*core.SimEvaluator]
	tests  map[string]*flight[*core.TestSet]
	models map[string]*flight[*core.Model]
	linear map[string]*flight[*core.LinearModel]
}

// flight is a single-flight cell: the first resolver runs build, every
// later (or concurrent) resolver waits on the Once and shares the value.
type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

// resolve returns the cached value for key, building it at most once
// even under concurrent callers. The map mutex is held only for the
// entry lookup, never across a build.
func resolve[T any](r *Runner, m map[string]*flight[T], key string, build func() (T, error)) (T, error) {
	r.mu.Lock()
	f, ok := m[key]
	if !ok {
		f = &flight[T]{}
		m[key] = f
	}
	r.mu.Unlock()
	f.once.Do(func() { f.val, f.err = build() })
	return f.val, f.err
}

// NewRunner prepares a runner at the given scale.
func NewRunner(s Scale) *Runner {
	return &Runner{
		Scale:  s,
		evs:    map[string]*flight[*core.SimEvaluator]{},
		tests:  map[string]*flight[*core.TestSet]{},
		models: map[string]*flight[*core.Model]{},
		linear: map[string]*flight[*core.LinearModel]{},
	}
}

// Workers resolves the scale's worker knob (par.Workers semantics:
// 1 = serial, 0 = one worker per CPU). Drivers use it to fan independent
// benchmarks and sample sizes out; results are collected into fixed
// slots in input order, so every rendering is identical to a serial run.
func (r *Runner) Workers() int { return par.Workers(r.Scale.Workers) }

// Evaluator returns the (memoizing) simulator evaluator for a benchmark.
func (r *Runner) Evaluator(bench string) (*core.SimEvaluator, error) {
	return resolve(r, r.evs, bench, func() (*core.SimEvaluator, error) {
		_, end := obs.StartSpanCtx(context.Background(), "exper.evaluator/"+bench)
		defer end()
		return core.NewSimEvaluator(bench, r.Scale.TraceLen)
	})
}

// TestSet returns the benchmark's independent random test set (Table 2
// space), simulating it on first use.
func (r *Runner) TestSet(bench string) (*core.TestSet, error) {
	return resolve(r, r.tests, bench, func() (*core.TestSet, error) {
		_, end := obs.StartSpanCtx(context.Background(), "exper.testset/"+bench)
		defer end()
		ev, err := r.Evaluator(bench)
		if err != nil {
			return nil, err
		}
		return core.NewTestSetWorkers(ev, nil, r.Scale.TestPoints, r.Scale.Seed+77, r.Scale.Workers), nil
	})
}

func (r *Runner) opt() core.Options {
	return core.Options{
		LHSCandidates: r.Scale.LHSCandidates,
		RBF:           r.Scale.RBF,
		Seed:          r.Scale.Seed,
		Parallel:      r.Scale.Workers,
	}
}

// Model builds (or returns the cached) RBF model for a benchmark at a
// sample size.
func (r *Runner) Model(bench string, size int) (*core.Model, error) {
	key := fmt.Sprintf("%s/%d", bench, size)
	return resolve(r, r.models, key, func() (*core.Model, error) {
		_, end := obs.StartSpanCtx(context.Background(), "exper.model/"+key)
		defer end()
		ev, err := r.Evaluator(bench)
		if err != nil {
			return nil, err
		}
		m, err := core.BuildRBFModel(ev, size, r.opt())
		if err != nil {
			return nil, fmt.Errorf("exper: model %s: %w", key, err)
		}
		return m, nil
	})
}

// Linear builds (or returns the cached) baseline linear model. It uses
// the same seed as Model, hence the identical training sample.
func (r *Runner) Linear(bench string, size int) (*core.LinearModel, error) {
	key := fmt.Sprintf("%s/%d", bench, size)
	return resolve(r, r.linear, key, func() (*core.LinearModel, error) {
		_, end := obs.StartSpanCtx(context.Background(), "exper.linear/"+key)
		defer end()
		ev, err := r.Evaluator(bench)
		if err != nil {
			return nil, err
		}
		m, err := core.BuildLinearModel(ev, size, r.opt())
		if err != nil {
			return nil, fmt.Errorf("exper: linear %s: %w", key, err)
		}
		return m, nil
	})
}

// benchSize is one (benchmark, sample size) cell of a sweep fan-out.
type benchSize struct {
	bench string
	size  int
}

// crossBenchSizes enumerates benches × sizes in bench-major order — the
// iteration order the serial sweeps used, preserved so fanned-out
// results collect into the same positions.
func crossBenchSizes(benches []string, sizes []int) []benchSize {
	out := make([]benchSize, 0, len(benches)*len(sizes))
	for _, b := range benches {
		for _, s := range sizes {
			out = append(out, benchSize{b, s})
		}
	}
	return out
}

// midConfig is the design-space center, used to pin the seven parameters
// not being swept in the response-surface studies.
func (r *Runner) midConfig() design.Config {
	s := design.PaperSpace()
	pt := make(design.Point, s.N())
	for i := range pt {
		pt[i] = 0.5
	}
	return s.Decode(pt, 100)
}
