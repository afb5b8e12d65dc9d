// Command bench is the repository's benchmark: four workloads that
// cover the system's three end-to-end paths — a model build, farm
// simulation throughput, and prediction requests, lone and routed — each
// measured untraced for the end-to-end metrics and, in a separate traced
// pass, broken down by layer. The metric names, units, directions and
// regression bounds are declared in BENCHMARK.json at the repository
// root; cmd/bench/README.md explains each one.
//
// Run one workload, untraced (--trace 0) or traced (--trace 1):
//
//	bash cmd/bench/run.sh --workload build --seed 1 --seconds 15 --trace 0
//
// Run every workload, each in its own process, untraced and then traced,
// and keep the report:
//
//	bash cmd/bench/run.sh --seed 1 --trace 1 --out report.json
//
// Classify two sets of reports against the declared bounds:
//
//	bash cmd/bench/run.sh --compare a1.json,a2.json b1.json b2.json
//
// Every output is checked before anything is reported; a failed check
// exits non-zero and prints no numbers. The last line a run prints on
// standard output is one JSON object: correct, attempted, failed and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"predperf/internal/obs"
)

// scale sizes a workload's inputs. The full scale is what BENCHMARK.json
// is measured at; the smoke scale keeps the tests quick.
type scale struct {
	Insts        int // trace length, dynamic instructions
	ModelPoints  int // LHS training points of the model build
	LHSCands     int // LHS candidates scored by discrepancy
	TestPoints   int // random validation points
	FarmPerBench int // fresh configs per benchmark per farm pass
	ProbeConfigs int // configs the in-process simulator probe runs per benchmark
	HotSet       int // distinct configs of predict_routed
	SetupReps    int // set-ups timed per untraced run
}

var (
	fullScale  = scale{Insts: 30_000, ModelPoints: 60, LHSCands: 32, TestPoints: 30, FarmPerBench: 32, ProbeConfigs: 4, HotSet: 512, SetupReps: 5}
	smokeScale = scale{Insts: 2_000, ModelPoints: 12, LHSCands: 4, TestPoints: 6, FarmPerBench: 8, ProbeConfigs: 2, HotSet: 64, SetupReps: 2}
)

// benchmarks are the simulated programs of sim_farm and of the
// simulator probe: stall-heavy mcf and equake against low-CPI crafty
// and vortex.
var benchmarks = []string{"mcf", "equake", "crafty", "vortex"}

// workers is the load and pipeline parallelism: the reference host has
// two CPUs, and the generator uses at most that many connections.
const workers = 2

// env is one workload process's settings.
type env struct {
	seed   int64
	dur    time.Duration // measured time of the run
	traced bool          // per-layer pass instead of end-to-end
	sc     scale
	bin    string // role binaries
	work   string // working directory for model files and role logs
	trace  *obs.Trace
}

// result is what a workload measured. End-to-end metrics carry their
// within-run samples; per-layer metrics are single values.
type result struct {
	attempted, failed int
	e2e               map[string]series
	layers            map[string]float64
	detail            map[string]float64
}

// series is one end-to-end metric's within-run samples. Its value is
// their median, or with lowest their smallest: a garbage collector that
// finishes late only adds to an operation's peak memory, so the lowest
// peak of a run is the one least inflated by timing.
type series struct {
	xs     []float64
	lowest bool
}

func newResult() *result {
	return &result{e2e: map[string]series{}, layers: map[string]float64{}, detail: map[string]float64{}}
}

var workloads = []struct {
	name string
	run  func(*env) (*result, error)
}{
	{"build", runBuild},
	{"sim_farm", runFarm},
	{"predict_lone", runLone},
	{"predict_routed", runRouted},
}

func main() { os.Exit(benchMain()) }

func benchMain() int {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workload := flag.String("workload", "", "workload to run (build, sim_farm, predict_lone, predict_routed); empty runs all, each in its own process")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "measured seconds per workload run")
	traceFlag := flag.Int("trace", 0, "1: run the traced pass and report the per-layer metrics (with all workloads: in addition to the untraced run)")
	out := flag.String("out", "", "write the JSON report here; a traced run also writes its Chrome trace beside it (.trace.json)")
	compare := flag.String("compare", "", "comma-separated old reports; classify them against the reports given as arguments and exit")
	bin := flag.String("bin", "", "directory holding built predserve, predrouter and simworker (default: build them into a temporary directory)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		log.Print(err)
		return 1
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		log.Print(err)
		return 1
	}
	if *compare != "" {
		if err := runCompare(sp, strings.Split(*compare, ","), flag.Args()); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	if *bin == "" {
		dir, err := os.MkdirTemp("", "bench-bin-")
		if err != nil {
			log.Print(err)
			return 1
		}
		defer os.RemoveAll(dir)
		if err := buildRoles(dir); err != nil {
			log.Print(err)
			return 1
		}
		*bin = dir
	}
	e := &env{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *traceFlag == 1, sc: fullScale, bin: *bin}
	if *workload == "" {
		return runAll(e, *out)
	}
	return runOne(sp, e, *workload, *out)
}

// runOne runs a workload in this process and prints its result.
func runOne(sp *spec, e *env, name, out string) int {
	var fn func(*env) (*result, error)
	for _, w := range workloads {
		if w.name == name {
			fn = w.run
		}
	}
	if fn == nil {
		log.Printf("unknown workload %q", name)
		return 2
	}
	work, err := os.MkdirTemp("", "bench-"+name+"-")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(work)
	e.work = work
	if e.traced {
		e.trace = obs.NewTrace(name)
	}
	res, err := fn(e)
	var ru run
	if err == nil {
		ru, err = finish(sp, e, name, res)
	}
	if err != nil {
		log.Printf("%s: %v", name, err)
		printLast(false, 0, 0, nil)
		return 1
	}
	printRun(&ru)
	if out != "" {
		rep := &report{Format: reportFormat, Host: hostInfo(e.seed), Runs: []run{ru}}
		if err := writeReport(out, rep); err != nil {
			log.Print(err)
			return 1
		}
		if e.trace != nil {
			if err := writeChrome(strings.TrimSuffix(out, ".json")+".trace.json", e.trace); err != nil {
				log.Print(err)
				return 1
			}
		}
	}
	printLast(true, ru.Attempted, ru.Failed, ru.Metrics)
	return 0
}

// finish checks that the workload emitted exactly the declared metrics
// as finite numbers and assembles the run record.
func finish(sp *spec, e *env, name string, res *result) (run, error) {
	ru := run{
		Workload: name, Traced: e.traced, Seed: e.seed, Seconds: e.dur.Seconds(), Correct: true,
		Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}, Detail: res.detail,
	}
	if res.attempted < 1 {
		return ru, errors.New("no operation was attempted")
	}
	want := sp.metrics(e.traced)
	got := len(res.e2e)
	if e.traced {
		got = len(res.layers)
	}
	if got != len(want) {
		return ru, fmt.Errorf("emitted %d metrics, BENCHMARK.json declares %d", got, len(want))
	}
	for _, m := range want {
		var mv metricValue
		if e.traced {
			v, ok := res.layers[m.Name]
			if !ok {
				return ru, fmt.Errorf("per-layer metric %s not measured", m.Name)
			}
			mv = metricValue{Value: v, N: 1, Median: v, Q1: v, Q3: v}
		} else {
			sr, ok := res.e2e[m.Name]
			if !ok || len(sr.xs) == 0 {
				return ru, fmt.Errorf("end-to-end metric %s not measured", m.Name)
			}
			s := summarize(sr.xs)
			mv = metricValue{Value: s.Median, N: s.N, Median: s.Median, Q1: s.Q1, Q3: s.Q3}
			if sr.lowest {
				mv.Value = s.Min
			}
			if s.N > 1 && s.N <= maxListedSamples {
				mv.Samples = sr.xs
			}
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return ru, fmt.Errorf("metric %s is not finite", m.Name)
		}
		mv.Unit = m.Unit
		ru.Metrics[m.Name] = mv
	}
	return ru, nil
}

func writeChrome(path string, t *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRun prints every metric by name with its unit, then the details.
func printRun(ru *run) {
	mode := "untraced"
	if ru.Traced {
		mode = "traced"
	}
	fmt.Printf("%s (%s, seed %d, %.0fs): %d attempted, %d failed, outputs correct\n",
		ru.Workload, mode, ru.Seed, ru.Seconds, ru.Attempted, ru.Failed)
	for _, name := range sortedKeys(ru.Metrics) {
		m := ru.Metrics[name]
		fmt.Printf("  %-36s %14.6g %-12s", name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Printf(" n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Println()
	}
	for _, name := range sortedKeys(ru.Detail) {
		fmt.Printf("  detail %-29s %14.6g\n", name, ru.Detail[name])
	}
}

// printLast prints the machine-readable last line.
func printLast(correct bool, attempted, failed int, metrics map[string]metricValue) {
	type kv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]kv{}
	for k, v := range metrics {
		m[k] = kv{v.Value, v.Unit}
	}
	raw, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]kv `json:"metrics"`
	}{correct, attempted, failed, m})
	fmt.Println(string(raw))
}

// runAll runs every workload in its own process — untraced, then traced
// when asked — so no cache, metric registry or heap carries over.
func runAll(e *env, out string) int {
	self, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "bench-all-")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(tmp)
	rep := &report{Format: reportFormat, Host: hostInfo(e.seed)}
	modes := []int{0}
	if e.traced {
		modes = append(modes, 1)
	}
	// Children write their reports (and a traced child its Chrome trace)
	// beside out, so the traces stay; the reports are merged and removed.
	base := filepath.Join(tmp, "run")
	if out != "" {
		base = strings.TrimSuffix(out, ".json")
	}
	for _, w := range workloads {
		for _, mode := range modes {
			part := base + "." + w.name + ".untraced.json"
			if mode == 1 {
				part = base + "." + w.name + ".json"
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(e.seed, 10),
				"-seconds", strconv.FormatFloat(e.dur.Seconds(), 'f', -1, 64),
				"-trace", strconv.Itoa(mode), "-bin", e.bin, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				log.Printf("%s (trace %d): %v", w.name, mode, err)
				printLast(false, 0, 0, nil)
				return 1
			}
			r, err := readReport(part)
			if err != nil {
				log.Print(err)
				return 1
			}
			os.Remove(part)
			rep.Runs = append(rep.Runs, r.Runs...)
		}
	}
	attempted, failed := 0, 0
	all := map[string]metricValue{}
	for i := range rep.Runs {
		ru := &rep.Runs[i]
		printRun(ru)
		attempted += ru.Attempted
		failed += ru.Failed
		for k, v := range ru.Metrics {
			all[ru.Workload+"/"+k] = v
		}
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			log.Print(err)
			return 1
		}
	}
	printLast(true, attempted, failed, all)
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func runCompare(sp *spec, oldPaths, newPaths []string) error {
	if len(newPaths) == 0 {
		return errors.New("-compare needs the new reports as arguments")
	}
	load := func(paths []string) ([]*report, error) {
		var out []*report
		for _, p := range paths {
			r, err := readReport(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	old, err := load(oldPaths)
	if err != nil {
		return err
	}
	new, err := load(newPaths)
	if err != nil {
		return err
	}
	printComparisons(os.Stdout, compareReports(sp, old, new), exactMismatches(append(old, new...)))
	return nil
}
