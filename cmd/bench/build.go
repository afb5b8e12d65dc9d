package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/rbf"
	"predperf/internal/sample"
	"predperf/internal/sim"
	"predperf/internal/trace"
)

// Per-layer metrics of layers a workload does not cross read 0; each
// workload zeroes the groups that are not its own.
var (
	buildLayers = []string{"sample.best_lhs_pct", "core.simulate_pct", "rbf.fit_pct", "core.testset_pct", "core.validate_pct"}
	farmLayers  = []string{"cluster.worker_eval_pct", "cluster.hop_pct"}
	serveLayers = []string{"serve.server_pct", "net.transport_pct", "cluster.router_hop_pct",
		"serve.coalesce_window_flush_frac", "serve.coalesce_batch_mean", "serve.cache_hit_ratio"}
)

func zero(layers map[string]float64, groups ...[]string) {
	for _, g := range groups {
		for _, name := range g {
			layers[name] = 0
		}
	}
}

// repeatSetup times the workload's set-up SetupReps times (once in the
// traced pass, which reports no set-up time) and keeps the last one: the
// earlier ones are torn down as soon as they are timed.
func repeatSetup(e *env, setup func() (teardown func(), err error)) ([]float64, error) {
	reps := e.sc.SetupReps
	if e.traced {
		reps = 1
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	return secs, nil
}

// traceGenerator returns the set-up's trace generation for mcf. The
// evaluators read the process-wide trace cache, so it fills the cache
// first: then every set-up pays generation exactly once, in the
// returned function.
func traceGenerator(e *env) (func(), error) {
	profile, ok := trace.ByName("mcf")
	if !ok {
		return nil, fmt.Errorf("no mcf profile")
	}
	if _, err := trace.Cached("mcf", e.sc.Insts); err != nil {
		return nil, err
	}
	return func() { trace.Generate(profile, e.sc.Insts, 1) }, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanMS(ds []time.Duration) float64 { return mean(ms(ds)) }

// built is one model build with its validation.
type built struct {
	m  *core.Model
	ts *core.TestSet
	st core.ErrorStats
	ev *core.SimEvaluator
}

func buildOptions(e *env, seed int64) core.Options {
	return core.Options{LHSCandidates: e.sc.LHSCands, Seed: seed, Parallel: workers}
}

// buildSeed is the sampling seed of a run's i-th build. Build 0 uses the
// run's seed; the others draw their own samples, so a run's median
// averages over inputs instead of repeating one.
func buildSeed(e *env, i int) int64 { return e.seed + 1000*int64(i) }

// paperBuild is one model build as predperf runs it: best-of-N LHS,
// simulation on a fresh (cold) evaluator, RBF fit, then validation on an
// independent random test set.
func paperBuild(e *env, seed int64) (built, error) {
	ev, err := core.NewSimEvaluator("mcf", e.sc.Insts)
	if err != nil {
		return built{}, err
	}
	m, err := core.BuildRBFModel(ev, e.sc.ModelPoints, buildOptions(e, seed))
	if err != nil {
		return built{}, err
	}
	m.Name = "mcf"
	ts := core.NewTestSetWorkers(ev, nil, e.sc.TestPoints, seed+77, workers)
	return built{m: m, ts: ts, st: m.Validate(ts), ev: ev}, nil
}

// reconstruct is paperBuild stage by stage through the exported stage
// functions, with a span around each stage call. It must agree with
// core.BuildRBFModel bit for bit; the spans (recorded only when ctx
// carries a trace) give the build's per-layer breakdown.
func reconstruct(ctx context.Context, e *env, seed int64) (built, error) {
	ctx, end := obs.StartSpanCtx(ctx, "build")
	defer end()
	ev, err := core.NewSimEvaluator("mcf", e.sc.Insts)
	if err != nil {
		return built{}, err
	}
	space, n := design.PaperSpace(), e.sc.ModelPoints

	_, endStage := obs.StartSpanCtx(ctx, "core.sample")
	raw, disc := sample.BestLHSWorkers(space, n, e.sc.LHSCands, rand.New(rand.NewSource(seed)), workers)
	pts := make([]design.Point, n)
	cfgs := make([]design.Config, n)
	xs := make([][]float64, n)
	for i, p := range raw {
		cfgs[i] = space.Decode(p, n)
		pts[i] = space.Encode(cfgs[i])
		xs[i] = pts[i]
	}
	endStage()

	simCtx, endStage := obs.StartSpanCtx(ctx, "core.simulate")
	ys := make([]float64, n)
	par.For(workers, n, func(i int) {
		_, endPoint := obs.StartSpanCtx(simCtx, "core.sim_point", "i", strconv.Itoa(i))
		ys[i] = ev.Eval(cfgs[i])
		endPoint()
	})
	endStage()

	_, endStage = obs.StartSpanCtx(ctx, "core.fit")
	fit, err := rbf.Fit(xs, ys, rbf.Options{Workers: workers})
	endStage()
	if err != nil {
		return built{}, err
	}
	m := &core.Model{Name: "mcf", Space: space, SampleSize: n, Fit: fit, Points: pts, Configs: cfgs, Responses: ys, Discrepancy: disc}

	_, endStage = obs.StartSpanCtx(ctx, "core.testset")
	ts := core.NewTestSetWorkers(ev, nil, e.sc.TestPoints, seed+77, workers)
	endStage()

	_, endStage = obs.StartSpanCtx(ctx, "core.validate")
	st := m.Validate(ts)
	endStage()
	return built{m: m, ts: ts, st: st, ev: ev}, nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBuild reports where two builds differ: responses, discrepancy,
// the chosen (p_min, α), AICc, test-set truths and error statistics.
func sameBuild(a, b built) error {
	fa, fb := a.m.Fit, b.m.Fit
	switch {
	case !sameFloats(a.m.Responses, b.m.Responses):
		return fmt.Errorf("simulated responses differ")
	case !sameFloats([]float64{a.m.Discrepancy, fa.Alpha, fa.AICc}, []float64{b.m.Discrepancy, fb.Alpha, fb.AICc}) || fa.PMin != fb.PMin:
		return fmt.Errorf("sample or fit differs: disc %v/%v p_min %d/%d alpha %v/%v aicc %v/%v",
			a.m.Discrepancy, b.m.Discrepancy, fa.PMin, fb.PMin, fa.Alpha, fb.Alpha, fa.AICc, fb.AICc)
	case !sameFloats(a.ts.Actual, b.ts.Actual):
		return fmt.Errorf("test-set responses differ")
	case !sameFloats([]float64{a.st.Mean, a.st.Max, a.st.Std}, []float64{b.st.Mean, b.st.Max, b.st.Std}) || a.st.N != b.st.N:
		return fmt.Errorf("validation errors differ: %+v vs %+v", a.st, b.st)
	}
	return nil
}

// buildGuards are the per-seed exact facts of a build: how many
// simulations it ran, the cycles they simulated, the model's size and
// its validation error, which must be a positive number.
func buildGuards(b built) (map[string]float64, error) {
	if !(b.st.Mean > 0) || math.IsInf(b.st.Mean, 0) {
		return nil, fmt.Errorf("validation error %v is not a positive number", b.st.Mean)
	}
	var cycles uint64
	for _, c := range append(append([]design.Config(nil), b.m.Configs...), b.ts.Configs...) {
		cycles += b.ev.Detail(c).Cycles
	}
	return map[string]float64{
		"sim.runs_per_op":    float64(b.ev.Simulations()),
		"sim.cycles_per_op":  float64(cycles),
		"rbf.centers":        float64(b.m.Fit.NumCenters()),
		"model_mean_err_pct": b.st.Mean,
	}, nil
}

func runBuild(e *env) (*result, error) {
	res := newResult()
	genTrace, err := traceGenerator(e)
	if err != nil {
		return nil, err
	}
	setups, err := repeatSetup(e, func() (func(), error) {
		genTrace()
		_, err := paperBuild(e, buildSeed(e, -1)) // warm-up build: code paths, heap, GC pacing
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	if e.traced {
		return tracedBuild(e, res)
	}
	var first built
	var rss []float64
	var cpu time.Duration
	durs, refs, err := passes(e.dur, 3, func(i int) error {
		if err := resetPeakRSS(os.Getpid()); err != nil {
			return err
		}
		cpu0 := selfCPU()
		b, err := paperBuild(e, buildSeed(e, i))
		if err != nil {
			return err
		}
		cpu += selfCPU() - cpu0
		peak, err := peakRSSMiB(os.Getpid())
		rss = append(rss, peak)
		if i == 0 {
			first = b
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.attempted = len(durs)
	guards, err := buildGuards(first)
	if err != nil {
		return nil, err
	}
	// The gate: the stage-by-stage reconstruction equals the build.
	rb, err := reconstruct(context.Background(), e, buildSeed(e, 0))
	if err != nil {
		return nil, err
	}
	if err := sameBuild(first, rb); err != nil {
		return nil, fmt.Errorf("reconstruction differs from core.BuildRBFModel: %w", err)
	}
	scaled := refScaledMS(durs, refs)
	res.e2e["setup_s"] = series{xs: setups}
	res.e2e["op_ms"] = series{xs: scaled}
	res.e2e["items_per_s"] = series{xs: []float64{guards["sim.runs_per_op"] / (median(scaled) / 1000)}}
	res.e2e["peak_rss_mb"] = series{xs: rss, lowest: true}
	res.detail = guards
	res.detail["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / float64(len(durs))
	res.detail["op_raw_ms"] = median(ms(durs))
	res.detail["host.ref_ms"] = median(ms(refs))
	return res, nil
}

// tracedBuild alternates an untraced build with its traced
// reconstruction on the same seed, so both see the same host and their
// ratio is the tracing overhead. Each reconstruction must equal its
// untraced twin; the spans give the breakdown.
func tracedBuild(e *env, res *result) (*result, error) {
	ctx := obs.WithTrace(context.Background(), e.trace)
	var first built
	var plain, traced []time.Duration
	for start := time.Now(); len(traced) < 2 || time.Since(start) < e.dur; {
		seed := buildSeed(e, len(traced))
		t0 := time.Now()
		b, err := paperBuild(e, seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rb, err := reconstruct(ctx, e, seed)
		if err != nil {
			return nil, err
		}
		plain, traced = append(plain, t1.Sub(t0)), append(traced, time.Since(t1))
		if err := sameBuild(b, rb); err != nil {
			return nil, fmt.Errorf("traced reconstruction differs from core.BuildRBFModel: %w", err)
		}
		if len(traced) == 1 {
			first = b
		}
	}
	res.attempted = len(plain) + len(traced)
	guards, err := buildGuards(first)
	if err != nil {
		return nil, err
	}
	stage := map[string]time.Duration{}
	var root, points time.Duration
	for _, s := range e.trace.Spans() {
		switch s.Name {
		case "build":
			root += s.Dur
		case "core.sim_point":
			points += s.Dur
		default:
			stage[s.Name] += s.Dur
		}
	}
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(root)) }
	l := res.layers
	l["sample.best_lhs_pct"] = pct(stage["core.sample"])
	l["core.simulate_pct"] = pct(stage["core.simulate"])
	l["rbf.fit_pct"] = pct(stage["core.fit"])
	l["core.testset_pct"] = pct(stage["core.testset"])
	l["core.validate_pct"] = pct(stage["core.validate"])
	l["bench.unattributed_pct"] = 100 - l["sample.best_lhs_pct"] - l["core.simulate_pct"] - l["rbf.fit_pct"] - l["core.testset_pct"] - l["core.validate_pct"]
	l["sim.parallel_efficiency"] = ratio(float64(points), float64(stage["core.simulate"])*workers)
	l["traced.op_mean_ms"] = meanMS(traced)
	l["bench.trace_overhead_pct"] = 100 * (float64(sumDur(traced))/float64(sumDur(plain)) - 1)
	l["cluster.useful_sim_ratio"] = 1 // an in-process evaluator simulates each distinct config once
	for k, v := range guards {
		l[k] = v
	}
	zero(l, farmLayers, serveLayers)
	return res, simProbe(e, first.m.Configs, l)
}

// simProbe runs the simulator in-process on one goroutine over the first
// ProbeConfigs of the workload's configs, on each benchmark's trace, so
// every workload reports the simulator's host speed, simulated CPI and
// allocation on its own inputs. Cycles are the simulated cycles after
// warm-up that sim.Result reports; instructions are the whole trace.
func simProbe(e *env, cfgs []design.Config, layers map[string]float64) error {
	k := min(len(cfgs), e.sc.ProbeConfigs)
	if k == 0 {
		return fmt.Errorf("simulator probe has no configs")
	}
	for _, b := range benchmarks {
		tr, err := trace.Cached(b, e.sc.Insts)
		if err != nil {
			return err
		}
		var wall time.Duration
		var cycles, alloc uint64
		var cpi float64
		for _, c := range cfgs[:k] {
			sc := sim.FromDesign(c)
			sc.WarmupInsts = e.sc.Insts / 5
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			r := sim.Run(sc, tr)
			wall += time.Since(t0)
			runtime.ReadMemStats(&m1)
			cycles += r.Cycles
			alloc += m1.TotalAlloc - m0.TotalAlloc
			cpi += r.CPI()
		}
		layers["sim.ns_per_cycle."+b] = float64(wall.Nanoseconds()) / float64(cycles)
		layers["sim.minst_per_s."+b] = float64(len(tr)*k) / wall.Seconds() / 1e6
		layers["sim.cpi."+b] = cpi / float64(k)
		layers["sim.alloc_kb_per_run."+b] = float64(alloc) / float64(k) / 1024
	}
	return nil
}
