package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and regression bounds. It is the single
// source of truth for what a run must emit.
type spec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
	PerLayer  []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &sp, nil
}

// metrics returns the metrics a run in the given mode must emit.
func (sp *spec) metrics(traced bool) []specMetric {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// reportFormat versions the JSON written by -out and read by -compare.
const reportFormat = 1

// report is the file written by -out: the host it ran on and one entry
// per workload process.
type report struct {
	Format int   `json:"format"`
	Host   host  `json:"host"`
	Runs   []run `json:"runs"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Dirty      bool   `json:"git_dirty"`
	Seed       int64  `json:"seed"`
}

// run is one workload process's result.
type run struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail holds numbers that explain the metrics but are not part of
	// the declared set: tail percentiles that pass the ten-samples rule,
	// the open-loop ladder, the exact guards of the untraced pass.
	Detail map[string]float64 `json:"detail,omitempty"`
}

// metricValue is one metric as measured. Samples are the within-run
// repeats the value summarizes (omitted when there is one, or when there
// are too many to list).
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// maxListedSamples bounds the samples written per metric; latency
// metrics summarize thousands of requests.
const maxListedSamples = 64

func hostInfo(seed int64) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if r.Format != reportFormat {
		return nil, fmt.Errorf("%s: report format %d, this benchmark reads %d", path, r.Format, reportFormat)
	}
	return &r, nil
}

func writeReport(path string, r *report) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Verdicts of -compare.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// comparison is one (workload, end-to-end metric) pair of -compare.
type comparison struct {
	Workload, Metric string
	Old, New         summary
	// Worse is the relative change of the median in the metric's bad
	// direction: +0.05 means 5% worse, −0.05 5% better.
	Worse   float64
	Bound   float64
	Verdict string
}

// classify applies the rule for a change measured in a small sandbox:
// a gain needs the new side to win at least nine tenths of the run
// pairs (ties count for neither) and the medians to differ by more than
// the old side's quartile spread; where that spread is wider than the
// bound the pair is unresolved, unless every new run beats every old
// one; otherwise a median worse by more than the bound is a regression.
func classify(old, new []float64, lowerBetter bool, bound float64) comparison {
	so, sn := summarize(old), summarize(new)
	c := comparison{Old: so, New: sn, Bound: bound}
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	c.Worse = (sn.Median - so.Median) / math.Abs(so.Median)
	if !lowerBetter {
		c.Worse = -c.Worse
	}
	pairs := min(len(old), len(new))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	iqr := so.Q3 - so.Q1
	spread := iqr / math.Abs(so.Median)
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && math.Abs(sn.Median-so.Median) > iqr && c.Worse < 0:
		c.Verdict = improved
	case spread > bound && !allBetter:
		c.Verdict = unresolved
	case c.Worse > bound:
		c.Verdict = regressed
	default:
		c.Verdict = unchanged
	}
	return c
}

// compareReports classifies every (workload, end-to-end metric) pair
// found in both sets of untraced runs.
func compareReports(sp *spec, old, new []*report) []comparison {
	values := func(reps []*report, wl, metric string) []float64 {
		var out []float64
		for _, r := range reps {
			for _, ru := range r.Runs {
				if ru.Workload == wl && !ru.Traced {
					if m, ok := ru.Metrics[metric]; ok {
						out = append(out, m.Value)
					}
				}
			}
		}
		return out
	}
	var out []comparison
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			o, n := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			c := classify(o, n, m.Better == "lower", m.Bound)
			c.Workload, c.Metric = w.Name, m.Name
			out = append(out, c)
		}
	}
	return out
}

// exactKeys are detail values that are deterministic per seed: any
// difference between two runs of one seed is a behaviour change, not
// noise.
var exactKeys = []string{"model_mean_err_pct", "rbf.centers", "sim.runs_per_op", "sim.cycles_per_op"}

// exactMismatches lists the exact guards that differ between runs of
// the same workload and seed across all the given reports.
func exactMismatches(reps []*report) []string {
	seen := map[string]float64{}
	var bad []string
	for _, r := range reps {
		for _, ru := range r.Runs {
			for _, k := range exactKeys {
				v, ok := ru.Detail[k]
				if !ok {
					continue
				}
				key := fmt.Sprintf("%s seed %d %s", ru.Workload, ru.Seed, k)
				if prev, ok := seen[key]; ok && prev != v {
					bad = append(bad, fmt.Sprintf("%s: %v != %v", key, v, prev))
				}
				seen[key] = v
			}
		}
	}
	sort.Strings(bad)
	return bad
}

func printComparisons(w io.Writer, cs []comparison, mismatches []string) {
	fmt.Fprintf(w, "%-15s %-14s %12s %23s %12s %23s %8s %6s  %s\n",
		"workload", "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "worse", "bound", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-15s %-14s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %+7.2f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, c.Old.Median, c.Old.Q1, c.Old.Q3, c.New.Median, c.New.Q1, c.New.Q3,
			100*c.Worse, 100*c.Bound, c.Verdict)
	}
	if len(mismatches) == 0 {
		fmt.Fprintf(w, "exact guards (%s): identical across runs of each seed\n", strings.Join(exactKeys, ", "))
		return
	}
	for _, m := range mismatches {
		fmt.Fprintf(w, "exact guard differs: %s\n", m)
	}
}
