// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation (§4), plus the design-choice ablations from DESIGN.md. Each
// benchmark runs the same driver as cmd/experiments at the reduced
// "quick" scale, so `go test -bench=. -benchmem` regenerates every
// result at laptop cost; `go run ./cmd/experiments -scale=paper`
// regenerates the full-size study.
//
// Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
package predperf_test

import (
	"fmt"
	"math/rand"
	"testing"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/exper"
	"predperf/internal/interval"
	"predperf/internal/sample"
	"predperf/internal/sim"
	"predperf/internal/trace"
)

// report prints a driver's rendering once per benchmark run when -v is
// set, so the regenerated tables are visible alongside the timings.
func report(b *testing.B, s fmt.Stringer) {
	b.Helper()
	if testing.Verbose() {
		b.Log("\n" + s.String())
	}
}

func BenchmarkTable1Space(b *testing.B) {
	var t1 *exper.Table1
	for i := 0; i < b.N; i++ {
		t1 = exper.RunTable1()
	}
	report(b, t1)
}

func BenchmarkFigure2Discrepancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		report(b, exper.RunFigure2(r))
	}
}

func BenchmarkFigure1Surface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		f, err := exper.RunFigure1(r, "vortex")
		if err != nil {
			b.Fatal(err)
		}
		report(b, f)
	}
}

func BenchmarkTable3Errors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		t3, err := exper.RunTable3(r)
		if err != nil {
			b.Fatal(err)
		}
		report(b, t3)
	}
}

func BenchmarkTable4Diagnostics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		t4, err := exper.RunTable4(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, t4)
	}
}

func BenchmarkTable5Splits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		t5, err := exper.RunTable5(r, "mcf", "vortex")
		if err != nil {
			b.Fatal(err)
		}
		report(b, t5)
	}
}

func BenchmarkFigure4ErrorCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		f4, err := exper.RunFigure4(r, r.Scale.SweepBench...)
		if err != nil {
			b.Fatal(err)
		}
		report(b, f4)
	}
}

func BenchmarkFigure5SplitHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		f5, err := exper.RunFigure5(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, f5)
	}
}

func BenchmarkFigure6Trends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		f6, err := exper.RunFigure6(r, "vortex")
		if err != nil {
			b.Fatal(err)
		}
		report(b, f6)
	}
}

func BenchmarkFigure7LinearVsRBF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		f7, err := exper.RunFigure7(r, "mcf", "vortex")
		if err != nil {
			b.Fatal(err)
		}
		report(b, f7)
	}
}

func BenchmarkExtensionFamilies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		fam, err := exper.RunFamilies(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, fam)
	}
}

func BenchmarkExtensionAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		a, err := exper.RunAdaptive(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, a)
	}
}

func BenchmarkExtensionSignificance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		sg, err := exper.RunSignificance(r)
		if err != nil {
			b.Fatal(err)
		}
		report(b, sg)
	}
}

func BenchmarkExtensionPowerTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		pt, err := exper.RunPowerTable(r)
		if err != nil {
			b.Fatal(err)
		}
		report(b, pt)
	}
}

func BenchmarkExtensionExtendedWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		ex, err := exper.RunExtended(r, []string{"gzip", "vpr"})
		if err != nil {
			b.Fatal(err)
		}
		report(b, ex)
	}
}

func BenchmarkExtensionValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		v, err := exper.RunValidation(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, v)
	}
}

func BenchmarkRelatedScreening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		sc, err := exper.RunScreening(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, sc)
	}
}

func BenchmarkRelatedStatSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		ss, err := exper.RunStatSim(r, "twolf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, ss)
	}
}

func BenchmarkAblationSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.NewRunner(exper.QuickScale())
		a, err := exper.RunAblations(r, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		report(b, a)
	}
}

// BenchmarkParallelPipeline measures the end-to-end model-building
// pipeline — best-of-K LHS with discrepancy scoring, design-point
// simulation, the (p_min, α) RBF grid search, and test-set validation —
// with the serial path (Parallel=1) against the default parallel path
// (Parallel=0 → one worker per CPU). The two sub-benchmarks build
// bit-identical models; the build workload of cmd/bench times the same
// pipeline end to end, with a per-stage breakdown.
func BenchmarkParallelPipeline(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// A fresh evaluator each iteration so the simulation stage
				// does real work instead of hitting the memoization cache.
				ev, err := core.NewSimEvaluator("mcf", 20_000)
				if err != nil {
					b.Fatal(err)
				}
				opt := core.Options{LHSCandidates: 16, Seed: 3, Parallel: bc.workers}
				m, err := core.BuildRBFModel(ev, 40, opt)
				if err != nil {
					b.Fatal(err)
				}
				ts := core.NewTestSetWorkers(ev, nil, 20, 80, bc.workers)
				m.Validate(ts)
			}
		})
	}
}

// Component microbenchmarks: the cost centers of the pipeline.

func BenchmarkSimulatorRun(b *testing.B) {
	tr, err := trace.Cached("twolf", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.WarmupInsts = 20_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg, tr)
	}
	b.ReportMetric(float64(len(tr))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkRBFFitSize90(b *testing.B) {
	ev, err := core.NewSimEvaluator("crafty", 20_000)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-simulate via one build so only fitting cost remains measurable
	// in subsequent iterations (the evaluator memoizes).
	opt := core.Options{LHSCandidates: 16, Seed: 5}
	if _, err := core.BuildRBFModel(ev, 90, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildRBFModel(ev, 90, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBestLHSDiscrepancy(b *testing.B) {
	space := design.PaperSpace()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		sample.BestLHS(space, 90, 20, rng)
	}
}

func BenchmarkAnalyticalModel(b *testing.B) {
	tr, err := trace.Cached("mcf", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interval.Analyze(tr, cfg)
	}
}

func BenchmarkModelPredict(b *testing.B) {
	ev := core.FuncEvaluator(func(c design.Config) float64 {
		return 1 + 10/float64(c.ROBSize) + float64(c.L2Lat)/20
	})
	m, err := core.BuildRBFModel(ev, 90, core.Options{LHSCandidates: 8})
	if err != nil {
		b.Fatal(err)
	}
	cfg := design.Config{
		PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictConfig(cfg)
	}
}
