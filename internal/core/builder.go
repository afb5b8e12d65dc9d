package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"predperf/internal/design"
	"predperf/internal/linreg"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/rbf"
	"predperf/internal/sample"
)

// Options configures the model-building procedure. Zero values take the
// defaults used throughout the paper reproduction.
type Options struct {
	Space         *design.Space // modeling space; default Table 1
	LHSCandidates int           // latin hypercube draws scored by discrepancy
	RBF           rbf.Options   // (p_min, α) grids etc.
	Seed          int64         // sampling seed
	// Parallel bounds the worker goroutines used by every stage of the
	// build — LHS candidate scoring, design-point simulation, and the
	// (p_min, α) grid search. 0 (the default) means one worker per CPU
	// (runtime.GOMAXPROCS(0)); 1 forces the serial path; n > 1 uses
	// exactly n workers. The built model is bit-identical regardless of
	// the setting: all parallel stages write to fixed result slots and
	// never share RNG state across goroutines.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.Space == nil {
		o.Space = design.PaperSpace()
	}
	if o.LHSCandidates <= 0 {
		o.LHSCandidates = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallel <= 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	if o.RBF.Workers == 0 {
		o.RBF.Workers = o.Parallel
	}
	return o
}

// Model is a fitted non-linear CPI model over a design space.
type Model struct {
	// Name identifies the workload the model was trained for (usually
	// the benchmark name). It travels with the persisted model so a
	// serving registry can address models by name.
	Name string
	// TraceLen and Metric name the simulation the responses came from:
	// the trace length in dynamic instructions and the metric read off
	// each run. Like Name they travel with the persisted model, so a
	// server can check it against exactly that simulation. The build
	// does not set them; the caller that chose the evaluator does
	// (predperf), and 0 means the trace length is unknown.
	TraceLen   int
	Metric     Metric
	Space      *design.Space
	SampleSize int
	Fit        *rbf.FitResult

	// Training data: the simulated configurations (encoded into model
	// coordinates) and their responses.
	Points    []design.Point
	Configs   []design.Config
	Responses []float64

	// Discrepancy of the chosen latin hypercube sample (Figure 2).
	Discrepancy float64
}

// Predict evaluates the model at a normalized point in the model space.
func (m *Model) Predict(pt design.Point) float64 {
	return m.Fit.Predict(pt)
}

// PredictConfig evaluates the model at a concrete configuration.
func (m *Model) PredictConfig(cfg design.Config) float64 {
	return m.Fit.Predict(m.Space.Encode(cfg))
}

// PredictBatch evaluates the model at every normalized point with one
// compiled matrix pass (blocked design matrix × weight vector) instead
// of a per-point walk over the RBF centers. Results are bit-identical
// to calling Predict per point.
func (m *Model) PredictBatch(pts []design.Point) []float64 {
	return m.Fit.PredictBatch(asFloats(pts))
}

// PredictConfigs evaluates the model at every concrete configuration
// through the same compiled batch path as PredictBatch; it is the
// vectorized counterpart of per-config PredictConfig and bit-identical
// to it.
func (m *Model) PredictConfigs(cfgs []design.Config) []float64 {
	xs := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		xs[i] = m.Space.Encode(c)
	}
	return m.Fit.PredictBatch(xs)
}

// sampleAndSimulate draws the space-filling sample (steps 2–3 of the
// procedure) and obtains responses from the evaluator, optionally with
// several workers. The stage spans attach to the trace in ctx when one
// is active.
func sampleAndSimulate(ctx context.Context, ev Evaluator, size int, opt Options) (pts []design.Point, cfgs []design.Config, ys []float64, disc float64) {
	sctx, endSample := obs.StartSpanCtx(ctx, "core.sample")
	rng := rand.New(rand.NewSource(opt.Seed))
	raw, disc := sample.BestLHSCtx(sctx, opt.Space, size, opt.LHSCandidates, rng, opt.Parallel)
	pts = make([]design.Point, len(raw))
	cfgs = make([]design.Config, len(raw))
	ys = make([]float64, len(raw))
	for i, p := range raw {
		cfg := opt.Space.Decode(p, size)
		cfgs[i] = cfg
		pts[i] = opt.Space.Encode(cfg)
	}
	endSample()
	simCtx, endSim := obs.StartSpanCtx(ctx, "core.simulate")
	defer endSim()
	evalAll(simCtx, ev, cfgs, ys, opt.Parallel)
	return pts, cfgs, ys, disc
}

// evalAll fills ys[i] = ev.Eval(cfgs[i]), using workers goroutines when
// workers > 1. Responses land at fixed indices, so results are
// deterministic for a deterministic evaluator. Under an active trace
// every design-point evaluation gets its own child span, so the Chrome
// export shows the simulation fan-out point by point.
func evalAll(ctx context.Context, ev Evaluator, cfgs []design.Config, ys []float64, workers int) {
	traced := obs.TraceFrom(ctx) != nil
	par.For(workers, len(cfgs), func(i int) {
		if traced {
			_, end := obs.StartSpanCtx(ctx, "core.sim_point", "i", strconv.Itoa(i))
			defer end()
		}
		ys[i] = ev.Eval(cfgs[i])
	})
}

// BuildRBFModel runs the paper's model construction procedure at one
// sample size: select a latin hypercube sample with the best L2-star
// discrepancy, simulate the selected design points, and fit an RBF
// network with regression-tree centers and AICc subset selection,
// searching the (p_min, α) grid.
func BuildRBFModel(ev Evaluator, size int, opt Options) (*Model, error) {
	return BuildRBFModelCtx(context.Background(), ev, size, opt)
}

// BuildRBFModelCtx is BuildRBFModel with context propagation: when ctx
// carries an obs.Trace (obs.WithTrace), every stage of the build —
// sampling with per-candidate scoring spans, per-design-point
// simulation, and the (p_min, α) grid search — records parent/child
// spans on it, giving the Chrome trace export a full timeline of the
// parallel build. Tracing observes and never perturbs: the built model
// is bit-identical with or without an active trace.
func BuildRBFModelCtx(ctx context.Context, ev Evaluator, size int, opt Options) (*Model, error) {
	if size < 4 {
		return nil, errors.New("core: sample size must be at least 4")
	}
	opt = opt.withDefaults()
	ctx, end := obs.StartSpanCtx(ctx, "core.build_rbf")
	defer end()
	pts, cfgs, ys, disc := sampleAndSimulate(ctx, ev, size, opt)
	fitCtx, endFit := obs.StartSpanCtx(ctx, "core.fit")
	fit, err := rbf.FitCtx(fitCtx, asFloats(pts), ys, opt.RBF)
	endFit()
	if err != nil {
		return nil, fmt.Errorf("core: RBF fit failed: %w", err)
	}
	return &Model{
		Space:       opt.Space,
		SampleSize:  size,
		Fit:         fit,
		Points:      pts,
		Configs:     cfgs,
		Responses:   ys,
		Discrepancy: disc,
	}, nil
}

// LinearModel is the §4.2 baseline: main effects + two-parameter
// interactions with AIC variable selection, trained on the same kind of
// space-filling sample as the RBF models.
type LinearModel struct {
	Space      *design.Space
	SampleSize int
	Fit        *linreg.Model
}

// Predict evaluates the linear model at a normalized point.
func (m *LinearModel) Predict(pt design.Point) float64 {
	return m.Fit.Predict(pt)
}

// BuildLinearModel builds the baseline linear model from an identically
// constructed sample (same seed → same sample as the RBF build).
func BuildLinearModel(ev Evaluator, size int, opt Options) (*LinearModel, error) {
	return BuildLinearModelCtx(context.Background(), ev, size, opt)
}

// BuildLinearModelCtx is BuildLinearModel with context propagation (see
// BuildRBFModelCtx).
func BuildLinearModelCtx(ctx context.Context, ev Evaluator, size int, opt Options) (*LinearModel, error) {
	if size < 4 {
		return nil, errors.New("core: sample size must be at least 4")
	}
	opt = opt.withDefaults()
	ctx, end := obs.StartSpanCtx(ctx, "core.build_linear")
	defer end()
	pts, _, ys, _ := sampleAndSimulate(ctx, ev, size, opt)
	_, endFit := obs.StartSpanCtx(ctx, "core.fit")
	fit, err := linreg.Fit(asFloats(pts), ys)
	endFit()
	if err != nil {
		return nil, fmt.Errorf("core: linear fit failed: %w", err)
	}
	return &LinearModel{Space: opt.Space, SampleSize: size, Fit: fit}, nil
}

func asFloats(pts []design.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = p
	}
	return out
}
