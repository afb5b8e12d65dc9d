package main

import (
	"math"
	"testing"
	"time"

	"predperf/internal/obs"
)

func TestTailReportableNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true},
		{99, 0.9, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{10000, 0.999, true},
		{0, 0.5, false},
	} {
		if got := tailReportable(c.n, c.p); got != c.want {
			t.Errorf("tailReportable(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

// The quartiles must be those of Python's statistics.quantiles(n=4),
// which the benchmark's acceptance check uses.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Fatalf("quartiles of 1..10 = %+v, want 2.75 / 5.5 / 8.25", s)
	}
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Fatalf("quartiles of 1..3 = %+v, want 1 / 2 / 3", s)
	}
}

// A metric whose value is its lowest sample reports that sample and
// still carries the median and quartiles of all of them.
func TestFinishTakesLowestOrMedian(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "peak_rss_mb", Unit: "MiB"}, {Name: "setup_s", Unit: "s"}}}
	res := newResult()
	res.attempted = 3
	res.e2e["peak_rss_mb"] = series{xs: []float64{30, 10, 20}, lowest: true}
	res.e2e["setup_s"] = series{xs: []float64{3, 1, 2}}
	ru, err := finish(sp, &env{}, "build", res)
	if err != nil {
		t.Fatal(err)
	}
	if m := ru.Metrics["peak_rss_mb"]; m.Value != 10 || m.Median != 20 || m.N != 3 {
		t.Errorf("peak_rss_mb = %+v, want value 10 (the lowest) and median 20", m)
	}
	if m := ru.Metrics["setup_s"]; m.Value != 2 {
		t.Errorf("setup_s = %+v, want value 2 (the median)", m)
	}
}

// An operation is scaled by how much slower or faster than nominal the
// reference ran beside it.
func TestRefScaledMS(t *testing.T) {
	ops := []time.Duration{2 * time.Second, 2 * time.Second}
	refs := []time.Duration{time.Duration(refNominalMS * float64(time.Millisecond)), time.Duration(2 * refNominalMS * float64(time.Millisecond))}
	got := refScaledMS(ops, refs)
	if got[0] != 2000 || got[1] != 1000 {
		t.Errorf("refScaledMS = %v, want [2000 1000]: as timed at nominal speed, halved when the reference took twice as long", got)
	}
}

func TestMaxRateAtSLO(t *testing.T) {
	ok := func(rate float64) step { return step{Rate: rate, Due: 1000, Sent: 1000} }
	over := func(rate float64, n int) step { s := ok(rate); s.OverLimit = n; return s }
	for _, c := range []struct {
		name  string
		steps []step
		want  float64
	}{
		{"all steps meet the limit", []step{ok(250), ok(500), ok(1000)}, 1000},
		{"1% over the limit still meets p99", []step{ok(250), over(500, 10), over(1000, 11)}, 500},
		{"base step misses", []step{over(250, 50), ok(500)}, 0},
		{"a step above a miss does not count", []step{ok(250), over(500, 20), ok(1000)}, 250},
		{"a failure misses the step", []step{ok(250), {Rate: 500, Due: 1000, Sent: 1000, Failed: 1}}, 250},
		{"unsent requests miss the limit", []step{ok(250), {Rate: 500, Due: 1000, Sent: 980}}, 250},
		{"an empty step misses", []step{ok(250), {Rate: 500}}, 250},
	} {
		if got := maxRateAtSLO(c.steps); got != c.want {
			t.Errorf("%s: maxRateAtSLO = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		old, new    []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", base, base, true, unchanged},
		{"5% worse within a 10% bound", base, scaled(1.05), true, unchanged},
		{"20% worse", base, scaled(1.2), true, regressed},
		{"20% better, every pair won", base, scaled(0.8), true, improved},
		{"throughput 20% lower", base, scaled(0.8), false, regressed},
		{"throughput 20% higher", base, scaled(1.2), false, improved},
		{"spread wider than the bound", []float64{60, 140, 80, 120, 100, 70, 130}, []float64{100, 101, 99}, true, unresolved},
		{"wide spread but every new run better", []float64{100, 140, 110, 130}, []float64{50, 60, 55, 58}, true, improved},
	} {
		if got := classify(c.old, c.new, c.lowerBetter, 0.1); got.Verdict != c.want {
			t.Errorf("%s: verdict %s (worse %+.3f), want %s", c.name, got.Verdict, got.Worse, c.want)
		}
	}
}

func TestCompareReportsPairsWorkloadsAndGuards(t *testing.T) {
	sp := &spec{Workloads: []specWorkload{{Name: "build"}}, EndToEnd: []specMetric{
		{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	mk := func(op, items, err float64) *report {
		return &report{Format: reportFormat, Runs: []run{
			{Workload: "build", Seed: 1, Metrics: map[string]metricValue{
				"op_ms": {Value: op}, "items_per_s": {Value: items}},
				Detail: map[string]float64{"model_mean_err_pct": err}},
			// Traced runs carry no end-to-end metrics and are skipped.
			{Workload: "build", Seed: 1, Traced: true},
		}}
	}
	old := []*report{mk(100, 50, 0.4), mk(101, 51, 0.4), mk(99, 49, 0.4)}
	new := []*report{mk(130, 50, 0.4), mk(131, 51, 0.4), mk(129, 49, 0.4)}
	cs := compareReports(sp, old, new)
	if len(cs) != 2 {
		t.Fatalf("got %d comparisons, want 2", len(cs))
	}
	want := map[string]string{"op_ms": regressed, "items_per_s": unchanged}
	for _, c := range cs {
		if c.Workload != "build" || c.Verdict != want[c.Metric] {
			t.Errorf("%s/%s: %s, want %s", c.Workload, c.Metric, c.Verdict, want[c.Metric])
		}
	}
	if bad := exactMismatches(append(old, new...)); len(bad) != 0 {
		t.Errorf("identical guards reported as differing: %v", bad)
	}
	if bad := exactMismatches([]*report{mk(1, 1, 0.4), mk(1, 1, 0.5)}); len(bad) != 1 {
		t.Errorf("a changed model error must be reported once, got %v", bad)
	}
}

// TestSmokeAllWorkloads runs every workload at smoke scale, untraced and
// traced, and checks each emits exactly the metrics BENCHMARK.json
// declares, all finite, with the end-to-end ones never zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts role processes")
	}
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	if err := buildRoles(bin); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %s in BENCHMARK.json, %s here", i, sp.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			e := &env{seed: 3, dur: 4 * time.Second, traced: traced, sc: smokeScale, bin: bin, work: t.TempDir()}
			if traced {
				e.trace = obs.NewTrace(w.name)
			}
			res, err := w.run(e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			ru, err := finish(sp, e, w.name, res)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			for _, m := range sp.metrics(traced) {
				got := ru.Metrics[m.Name]
				if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s %s = %v %s, want a finite value in %s", w.name, m.Name, got.Value, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if ru.Failed != 0 {
				t.Errorf("%s (traced %v): %d of %d operations failed", w.name, traced, ru.Failed, ru.Attempted)
			}
			if traced {
				var sum float64
				for _, name := range append(append(append([]string{"bench.unattributed_pct"}, buildLayers...), farmLayers...), "serve.server_pct", "net.transport_pct", "cluster.router_hop_pct") {
					sum += ru.Metrics[name].Value
				}
				if math.Abs(sum-100) > 1e-6 {
					t.Errorf("%s: the breakdown sums to %v%%, want 100%%", w.name, sum)
				}
			}
		}
	}
}
