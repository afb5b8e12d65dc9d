package core

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/rbf"
	"predperf/internal/sample"
)

// ErrorStats are the paper's model-accuracy metrics (Table 3, Figure 4):
// mean, maximum, and standard deviation of the absolute percentage error
// in predicted CPI over a test set.
type ErrorStats struct {
	Mean, Max, Std float64
	N              int
}

// errorStats computes the metrics from paired predictions and truths.
// Pairs whose true response is zero are skipped: a percentage error is
// undefined at actual == 0, and a single such pair would otherwise turn
// Mean/Max/Std into Inf or NaN and poison the whole statistic. N counts
// only the pairs that entered the metrics, so callers can detect how
// many were dropped; if every actual is zero the zero-value ErrorStats
// (N == 0) is returned.
func errorStats(pred, actual []float64) ErrorStats {
	if len(pred) != len(actual) || len(pred) == 0 {
		return ErrorStats{}
	}
	errs := make([]float64, 0, len(pred))
	var sum float64
	var s ErrorStats
	for i := range pred {
		a := math.Abs(actual[i])
		if a == 0 {
			continue
		}
		e := 100 * math.Abs(pred[i]-actual[i]) / a
		errs = append(errs, e)
		sum += e
		if e > s.Max {
			s.Max = e
		}
	}
	if len(errs) == 0 {
		return ErrorStats{}
	}
	s.N = len(errs)
	s.Mean = sum / float64(len(errs))
	var v float64
	for _, e := range errs {
		d := e - s.Mean
		v += d * d
	}
	s.Std = math.Sqrt(v / float64(len(errs)))
	return s
}

// TestSet is an independently generated set of design points with their
// simulated responses, used to estimate predictive accuracy (§3: fifty
// random points from the restricted Table 2 space).
type TestSet struct {
	Configs []design.Config
	Actual  []float64
}

// NewTestSet draws n uniform random points from testSpace (Table 2 by
// default when nil), simulates them, and returns the paired data. The
// generated points are independent of any training sample. Simulation
// runs on all CPUs; see NewTestSetWorkers for an explicit worker count.
func NewTestSet(ev Evaluator, testSpace *design.Space, n int, seed int64) *TestSet {
	return NewTestSetWorkers(ev, testSpace, n, seed, 0)
}

// NewTestSetWorkers is NewTestSet with an explicit worker count
// (par.Workers semantics: 1 = serial, <= 0 = all CPUs). The points are
// drawn serially from the seeded RNG before any simulation starts, and
// the responses are filled through the same fixed-slot evalAll path the
// training sample uses, so the test set is identical for every worker
// count.
func NewTestSetWorkers(ev Evaluator, testSpace *design.Space, n int, seed int64, workers int) *TestSet {
	_, end := obs.StartSpanCtx(context.Background(), "core.testset")
	defer end()
	if testSpace == nil {
		testSpace = design.TestSpace()
	}
	if seed == 0 {
		seed = 99
	}
	rng := rand.New(rand.NewSource(seed))
	pts := sample.UniformRandom(testSpace, n, rng)
	ts := &TestSet{
		Configs: make([]design.Config, n),
		Actual:  make([]float64, n),
	}
	for i, p := range pts {
		ts.Configs[i] = testSpace.Decode(p, n)
	}
	evalAll(context.Background(), ev, ts.Configs, ts.Actual, par.Workers(workers))
	return ts
}

// predictor is any model that can score a concrete configuration once
// its coordinates are encoded into a model space.
type predictor interface {
	Predict(pt []float64) float64
}

// batchPredictor is the optional fast path: models that can score a
// whole batch in one vectorized pass (rbf.FitResult). Validation takes
// it when present; per-point results must be bit-identical to Predict,
// so the two routes are interchangeable.
type batchPredictor interface {
	PredictBatch(xs [][]float64) []float64
}

// validateOn scores m on the test set under a core.validate span on
// ctx, so a traced caller sees the stage on its trace.
func validateOn(ctx context.Context, m predictor, space *design.Space, ts *TestSet) ErrorStats {
	_, end := obs.StartSpanCtx(ctx, "core.validate")
	defer end()
	var pred []float64
	if bp, ok := m.(batchPredictor); ok {
		xs := make([][]float64, len(ts.Configs))
		for i, c := range ts.Configs {
			xs[i] = space.Encode(c)
		}
		pred = bp.PredictBatch(xs)
	} else {
		pred = make([]float64, len(ts.Configs))
		par.For(par.Workers(0), len(ts.Configs), func(i int) {
			pred[i] = m.Predict(space.Encode(ts.Configs[i]))
		})
	}
	return errorStats(pred, ts.Actual)
}

// Validate estimates the RBF model's accuracy on a test set.
func (m *Model) Validate(ts *TestSet) ErrorStats {
	return validateOn(context.Background(), m.Fit, m.Space, ts)
}

// Validate estimates the linear baseline's accuracy on a test set.
func (m *LinearModel) Validate(ts *TestSet) ErrorStats {
	return validateOn(context.Background(), m.Fit, m.Space, ts)
}

// BuildResult pairs a model with its measured accuracy at one step of
// the iterative procedure.
type BuildResult struct {
	Model *Model
	Stats ErrorStats
}

// BuildToAccuracy is step 6 of the procedure: build models at increasing
// sample sizes until the mean test error drops to targetMeanPct (or the
// sizes are exhausted), returning every intermediate result. A non-nil
// error is returned if the inputs are unusable (nil evaluator or test
// set, no sizes) or if no size produced a model at all.
func BuildToAccuracy(ev Evaluator, sizes []int, targetMeanPct float64, ts *TestSet, opt Options) ([]BuildResult, error) {
	return BuildToAccuracyCtx(context.Background(), ev, sizes, targetMeanPct, ts, opt)
}

// BuildToAccuracyCtx is BuildToAccuracy on ctx: each size's build and
// validation spans land on ctx's trace, and cancelling ctx stops the
// escalation at the next size boundary. The results built so far are
// returned alongside ctx.Err(), so a caller can tell a completed
// escalation (nil error) from an interrupted one.
func BuildToAccuracyCtx(ctx context.Context, ev Evaluator, sizes []int, targetMeanPct float64, ts *TestSet, opt Options) ([]BuildResult, error) {
	if ev == nil {
		return nil, errors.New("core: BuildToAccuracy requires a non-nil evaluator")
	}
	if ts == nil || len(ts.Configs) == 0 {
		return nil, errors.New("core: BuildToAccuracy requires a non-empty test set (got nil or zero points)")
	}
	if len(sizes) == 0 {
		return nil, errors.New("core: BuildToAccuracy requires at least one sample size")
	}
	var out []BuildResult
	var lastErr error
	for _, size := range sizes {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		m, err := BuildRBFModelCtx(ctx, ev, size, opt)
		if err != nil {
			lastErr = err
			continue
		}
		st := validateOn(ctx, m.Fit, m.Space, ts)
		out = append(out, BuildResult{Model: m, Stats: st})
		if st.Mean <= targetMeanPct {
			break
		}
	}
	if len(out) == 0 {
		return nil, lastErr
	}
	return out, nil
}

// CrossValidate estimates the model's generalization error without any
// additional simulation: k-fold cross-validation over the training
// sample, refitting with the model's winning method parameters
// (p_min, α) on each fold. It is the error signal the adaptive-sampling
// extension uses, exposed as a model diagnostic.
func (m *Model) CrossValidate(folds int) ErrorStats {
	n := len(m.Points)
	if folds < 2 {
		folds = 5
	}
	if folds > n {
		folds = n
	}
	opt := rbf.Options{PMinGrid: []int{m.Fit.PMin}, AlphaGrid: []float64{m.Fit.Alpha}}
	var pred, actual []float64
	for f := 0; f < folds; f++ {
		var trX [][]float64
		var trY []float64
		var hold []int
		for i := 0; i < n; i++ {
			if i%folds == f {
				hold = append(hold, i)
			} else {
				trX = append(trX, m.Points[i])
				trY = append(trY, m.Responses[i])
			}
		}
		fit, err := rbf.Fit(trX, trY, opt)
		if err != nil {
			continue
		}
		for _, i := range hold {
			pred = append(pred, fit.Predict(m.Points[i]))
			actual = append(actual, m.Responses[i])
		}
	}
	return errorStats(pred, actual)
}
