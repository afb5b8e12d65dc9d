// Command predperf builds a predictive model for a benchmark workload
// using the paper's BuildRBFModel procedure (or the §6 adaptive-sampling
// extension), validates it on an independent random test set, and
// optionally compares it against the linear-regression baseline,
// predicts a specific configuration, or saves/loads the fitted model.
//
// Usage:
//
//	predperf -bench mcf -sample 90                 # build + validate
//	predperf -bench mcf -sample 90 -linear         # also fit the baseline
//	predperf -bench mcf -sample 90 -metric edp     # model energy-delay product
//	predperf -bench mcf -sample 90 -adaptive       # adaptive sampling at the same budget
//	predperf -bench mcf -sample 90 -save m.json    # persist the model
//	predperf -bench mcf -load m.json \
//	         -predict "depth=10,rob=96,iq=48,lsq=48,l2kb=4096,l2lat=8,il1kb=32,dl1kb=32,dl1lat=2"
//
// Observability (internal/obs): -report writes a machine-readable JSON
// run report (host info, per-stage wall-clock spans, pipeline counters
// such as simulations run vs. cache hits); -trace writes a Chrome
// trace-event JSON timeline of the standard (non-adaptive) build —
// LHS candidate scoring, per-design-point simulations, and (p_min, α)
// grid cells as nested parallel lanes, loadable in chrome://tracing or
// Perfetto; -progress prints periodic counter summaries to stderr
// during the build; -pprof serves net/http/pprof on the given address.
// None of these affect the built model.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strconv"
	"strings"
	"time"

	"predperf"
	"predperf/internal/adaptive"
	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("predperf: ")

	bench := flag.String("bench", "mcf", "benchmark workload ("+strings.Join(predperf.Benchmarks(), ", ")+")")
	insts := flag.Int("insts", 150_000, "trace length in dynamic instructions")
	sampleSize := flag.Int("sample", 90, "training sample size (design points simulated)")
	testN := flag.Int("test", 50, "random test points for validation")
	candidates := flag.Int("lhs", 100, "latin hypercube candidates scored by discrepancy")
	seed := flag.Int64("seed", 1, "sampling seed")
	parallel := flag.Int("parallel", 0, "pipeline workers (0 = all CPUs, 1 = serial); the model is identical either way")
	metricName := flag.String("metric", "cpi", "response to model: cpi, epi, edp, or power")
	linear := flag.Bool("linear", false, "also fit and validate the linear baseline")
	adaptiveFlag := flag.Bool("adaptive", false, "use adaptive sampling (§6 extension) at the same budget")
	saveFile := flag.String("save", "", "write the fitted model to this file (JSON)")
	loadFile := flag.String("load", "", "load a model instead of building one")
	predict := flag.String("predict", "", "comma-separated config to predict, e.g. depth=12,rob=96,...")
	report := flag.String("report", "", "write a JSON run report (stage timings, counters, host info) to this file")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON timeline of the build (load in chrome://tracing) to this file")
	progress := flag.Bool("progress", false, "print periodic pipeline counters to stderr")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	simWorkers := flag.String("sim-workers", "", "comma-separated simworker base URLs; when set, every simulation fans out to the evaluation farm instead of running in-process (the built model is bit-identical)")
	flag.Parse()

	if *report != "" || *progress || *pprofAddr != "" || *traceFile != "" {
		obs.Enable()
		obs.Reset()
	}
	if *report != "" {
		// Goroutine/heap/GC gauges land in the report alongside the
		// pipeline counters.
		obs.RegisterRuntimeMetrics()
	}
	// -trace attaches a run-scoped trace to the build context; every
	// stage span (sampling, per-design-point sims, RBF grid cells)
	// lands on it as a parent/child timeline. Tracing observes, never
	// perturbs: the built model is bit-identical either way.
	buildCtx := context.Background()
	var buildTrace *obs.Trace
	if *traceFile != "" {
		buildTrace = obs.NewTrace("")
		buildCtx = obs.WithTrace(buildCtx, buildTrace)
	}
	if *progress {
		stop := obs.StartProgress(os.Stderr, 2*time.Second)
		defer stop()
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	metric, err := core.ParseMetric(*metricName)
	if err != nil {
		log.Fatal(err)
	}

	// The evaluator is either the in-process simulator or a view onto
	// the distributed evaluation farm; both are deterministic, so the
	// model built downstream is bit-identical either way.
	var (
		ev      core.Evaluator
		sims    func() int
		evalErr = func() error { return nil }
	)
	if *simWorkers != "" {
		var urls []string
		for _, u := range strings.Split(*simWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		pool, err := cluster.NewPool(urls, cluster.PoolOptions{})
		if err != nil {
			log.Fatalf("-sim-workers: %v", err)
		}
		remote := cluster.NewRemoteEvaluator(pool, *bench, *insts, metric)
		ev, sims, evalErr = remote, remote.Simulations, remote.Err
		fmt.Printf("evaluation farm: %s\n", strings.Join(pool.Workers(), ", "))
	} else {
		base, err := core.NewSimEvaluator(*bench, *insts)
		if err != nil {
			log.Fatal(err)
		}
		ev, sims = base.WithMetric(metric), base.Simulations
	}
	opt := predperf.Options{LHSCandidates: *candidates, Seed: *seed, Parallel: *parallel}

	var m *predperf.Model
	switch {
	case *loadFile != "":
		f, err := os.Open(*loadFile)
		if err != nil {
			log.Fatal(err)
		}
		m, err = core.LoadModel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name := m.Name
		if name == "" {
			name = "(unnamed)"
		}
		fmt.Printf("loaded model %s from %s: %d training points, %d RBF centers\n",
			name, *loadFile, m.SampleSize, m.Fit.NumCenters())
	case *adaptiveFlag:
		fmt.Printf("adaptive build for %s (%s): budget %d simulations\n", *bench, metric, *sampleSize)
		var rounds []adaptive.Round
		m, rounds, err = adaptive.Build(ev, adaptive.Options{
			InitialSize: *sampleSize / 3,
			BatchSize:   *sampleSize / 6,
			MaxSize:     *sampleSize,
			Seed:        *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, rd := range rounds {
			fmt.Printf("  size %3d: cross-validation %.2f%%, %d centers\n", rd.Size, rd.CVMean, rd.Centers)
		}
	default:
		fmt.Printf("building RBF model for %s (%s): %d design points, %d-instruction traces\n",
			*bench, metric, *sampleSize, *insts)
		m, err = predperf.BuildModelCtx(buildCtx, ev, *sampleSize, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sample discrepancy : %.5f\n", m.Discrepancy)
	}
	if m.Name == "" {
		// Stamp freshly built models with their workload so the persisted
		// header names the benchmark for predserve's registry.
		m.Name = *bench
	}
	if *loadFile == "" {
		// And with the simulation they were built on, so predserve
		// re-simulates a served prediction on exactly that trace and
		// metric.
		m.TraceLen, m.Metric = *insts, metric
	}
	fmt.Printf("  method parameters  : p_min=%d alpha=%.0f\n", m.Fit.PMin, m.Fit.Alpha)
	fmt.Printf("  RBF centers        : %d\n", m.Fit.NumCenters())

	ts := predperf.NewTestSet(ev, nil, *testN, *seed+77)
	st := m.Validate(ts)
	fmt.Printf("  validation (%d random points): mean %.2f%%, max %.2f%%, std %.2f%%\n",
		st.N, st.Mean, st.Max, st.Std)
	fmt.Printf("  simulations run    : %d\n", sims())
	// A farm failure surfaces as NaN evaluations; refuse to go on (and
	// in particular to persist) a model that may rest on missing data.
	if err := evalErr(); err != nil {
		log.Fatalf("remote evaluation failed: %v", err)
	}

	if *linear {
		lm, err := predperf.BuildLinearCtx(buildCtx, ev, *sampleSize, opt)
		if err != nil {
			log.Fatal(err)
		}
		lst := lm.Validate(ts)
		fmt.Printf("linear baseline: mean %.2f%%, max %.2f%% (%d terms kept)\n",
			lst.Mean, lst.Max, len(lm.Fit.Terms))
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model saved to %s\n", *saveFile)
	}

	if *predict != "" {
		cfg, err := parseConfig(*predict)
		if err != nil {
			log.Fatal(err)
		}
		pred := m.PredictConfig(cfg)
		actual := ev.Eval(cfg)
		fmt.Printf("prediction for %s\n", cfg)
		fmt.Printf("  model %s     : %.4f\n", metric, pred)
		fmt.Printf("  simulated %s : %.4f (error %.2f%%)\n", metric, actual,
			100*abs(pred-actual)/actual)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := buildTrace.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chrome trace (%d spans, id %s) written to %s\n",
			buildTrace.Len(), buildTrace.ID(), *traceFile)
	}

	if *report != "" {
		rep := obs.Snapshot()
		rep.Meta = map[string]string{
			"cmd":    "predperf",
			"bench":  *bench,
			"metric": metric.String(),
			"sample": strconv.Itoa(*sampleSize),
			"insts":  strconv.Itoa(*insts),
		}
		f, err := os.Create(*report)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run report written to %s\n", *report)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// parseConfig reads "depth=12,rob=96,iq=48,lsq=48,l2kb=2048,l2lat=10,il1kb=32,dl1kb=32,dl1lat=2".
func parseConfig(s string) (predperf.Config, error) {
	cfg := predperf.Config{
		PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return cfg, fmt.Errorf("bad field %q", kv)
		}
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return cfg, fmt.Errorf("bad value in %q: %v", kv, err)
		}
		switch parts[0] {
		case "depth":
			cfg.PipeDepth = v
		case "rob":
			cfg.ROBSize = v
		case "iq":
			cfg.IQSize = v
		case "lsq":
			cfg.LSQSize = v
		case "l2kb":
			cfg.L2SizeKB = v
		case "l2lat":
			cfg.L2Lat = v
		case "il1kb":
			cfg.IL1SizeKB = v
		case "dl1kb":
			cfg.DL1SizeKB = v
		case "dl1lat":
			cfg.DL1Lat = v
		default:
			return cfg, fmt.Errorf("unknown field %q", parts[0])
		}
	}
	return cfg, nil
}
