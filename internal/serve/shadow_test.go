package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
)

// TestShadowSamplingDeterministic: the sampling decision is a pure
// function of (model, quantized config) — stable across calls and across
// monitor instances, so a sampled point can be replayed offline.
func TestShadowSamplingDeterministic(t *testing.T) {
	m := buildTestModel(t, "det")
	opt := Options{ShadowFraction: 0.5}.withDefaults()
	a := newShadowMonitor(opt, nil)
	b := newShadowMonitor(opt, nil)
	defer a.stop()
	defer b.stop()

	sampled := 0
	for _, cfg := range m.Configs {
		da := a.sampled("det", cfg)
		for i := 0; i < 3; i++ {
			if a.sampled("det", cfg) != da {
				t.Fatal("sampling decision changed between calls")
			}
		}
		if b.sampled("det", cfg) != da {
			t.Fatal("sampling decision differs between monitor instances")
		}
		if da {
			sampled++
		}
	}
	if sampled == 0 || sampled == len(m.Configs) {
		t.Fatalf("frac 0.5 sampled %d/%d configs; hash looks degenerate", sampled, len(m.Configs))
	}

	// frac 1 samples everything; a disabled monitor samples nothing.
	all := newShadowMonitor(Options{ShadowFraction: 1}.withDefaults(), nil)
	defer all.stop()
	off := newShadowMonitor(Options{ShadowFraction: 0}.withDefaults(), nil)
	for _, cfg := range m.Configs {
		if !all.sampled("det", cfg) {
			t.Fatal("frac 1 skipped a config")
		}
		if off.sampled("det", cfg) {
			t.Fatal("disabled monitor sampled a config")
		}
	}
}

// TestShadowResponsesBitIdentical is the serving half of the acceptance
// criterion: with shadow sampling at 100% the served responses are
// byte-for-byte what a no-shadow server returns.
func TestShadowResponsesBitIdentical(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "bitid")

	run := func(frac float64) []byte {
		s := New(Options{ShadowFraction: frac})
		if err := s.Registry().Add("bitid", m, ""); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var req struct {
			Model   string               `json:"model"`
			Configs []cluster.WireConfig `json:"configs"`
		}
		req.Model = "bitid"
		for _, c := range m.Configs[:16] {
			req.Configs = append(req.Configs, cluster.FromConfig(c))
		}
		js, _ := json.Marshal(req)
		_, body := postJSON(t, ts.URL+"/v1/predict", string(js))
		s.shadow.drain()
		s.shadow.stop()
		return body
	}

	with := run(1)
	without := run(0)
	if !bytes.Equal(with, without) {
		t.Fatalf("responses differ with shadow sampling on:\n  with:    %s\n  without: %s", with, without)
	}
	// The synthetic model names neither a simulator benchmark nor a
	// trace length, so every shadow job fails at evaluator construction
	// — counted, not fatal.
	if obs.NewCounter("serve.shadow_sim_failures").Value() == 0 {
		t.Fatal("expected shadow sim failures for a non-benchmark model name")
	}
}

// TestShadowQueueDrops: a full queue drops samples rather than blocking
// the predict path.
func TestShadowQueueDrops(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "drops")
	m.TraceLen = 2000
	// The one worker blocks building its evaluator, so a burst of one
	// more sample than the worker and the queue can hold must overflow,
	// and the overflow must be counted.
	release := make(chan struct{})
	e := &Entry{Name: "drops", Model: m, evalFactory: func(string, int, core.Metric) (core.Evaluator, error) {
		<-release
		return nil, errors.New("no simulator in this test")
	}}
	mon := newShadowMonitor(Options{ShadowFraction: 1}.withDefaults(), nil)
	defer mon.stop()
	for i := 0; i < shadowWorkers+shadowQueue+1; i++ {
		mon.offer(e, m.Configs[i%len(m.Configs)], 1.0)
	}
	close(release)
	mon.drain()
	dropped := obs.NewCounter("serve.shadow_dropped").Value()
	if dropped == 0 {
		t.Fatalf("%d offers through a %d-slot queue dropped nothing", shadowWorkers+shadowQueue+1, shadowQueue)
	}
}

// TestShadowErrorMatchesBuildTimeValidation is the acceptance criterion:
// serve an on-grid batch with -shadow-frac 1.0 and the shadow monitor's
// mean error must equal the build-time test-set error, because both run
// the identical simulator evaluator path on identical configs.
func TestShadowErrorMatchesBuildTimeValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a simulator-backed model")
	}
	obs.Reset()
	const traceLen = 6000
	ev, err := core.NewSimEvaluator("twolf", traceLen)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildRBFModel(ev, 24, core.Options{LHSCandidates: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// The registry resolves the shadow evaluator from the simulation the
	// model names: its benchmark and trace length (and CPI, the zero
	// metric).
	m.Name, m.TraceLen = "twolf", traceLen

	// Draw random test points, then quantize each through the exact
	// Decode∘Encode projection the serve path applies, so the served
	// config is the config validated here and the shadow path
	// re-simulates exactly these points.
	raw := core.NewTestSet(ev, m.Space, 10, 5)
	ts := &core.TestSet{
		Configs: make([]design.Config, len(raw.Configs)),
		Actual:  make([]float64, len(raw.Configs)),
	}
	for i, c := range raw.Configs {
		q := m.Space.Decode(m.Space.Encode(c), m.SampleSize)
		ts.Configs[i] = q
		ts.Actual[i] = ev.Eval(q)
	}
	want := m.Validate(ts)
	if want.N != len(ts.Configs) {
		t.Fatalf("test set dropped points: %+v", want)
	}

	clk := newFakeClock()
	s := New(Options{
		ShadowFraction: 1,
		Clock:          clk.now,
		ShadowErrPct:   -1, // never trip readiness in this test
	})
	if err := s.Registry().Add("twolf", m, ""); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()

	var req struct {
		Model   string               `json:"model"`
		Configs []cluster.WireConfig `json:"configs"`
	}
	req.Model = "twolf"
	for _, c := range ts.Configs {
		req.Configs = append(req.Configs, cluster.FromConfig(c))
	}
	js, _ := json.Marshal(req)
	_, body := postJSON(t, hts.URL+"/v1/predict", string(js))
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	for i, p := range pr.Predictions {
		if wantV := m.PredictConfig(ts.Configs[i]); p.Value != wantV {
			t.Fatalf("served prediction %d = %v, want bit-identical %v", i, p.Value, wantV)
		}
	}
	s.shadow.drain()

	st, ok := s.shadow.modelStats("twolf")
	if !ok {
		t.Fatal("no shadow stats after a frac-1.0 batch")
	}
	n := st.hist.Count()
	if n != int64(len(ts.Configs)) {
		t.Fatalf("shadow processed %d samples, want %d", n, len(ts.Configs))
	}
	// The histogram's mean is the mean of the same per-point errors
	// errorStats averaged at build time; only float summation order
	// differs.
	gotMean := st.hist.Sum() / float64(n)
	if math.Abs(gotMean-want.Mean) > 1e-9*math.Max(1, want.Mean) {
		t.Fatalf("shadow mean error %.12f%%, want build-time test-set error %.12f%%", gotMean, want.Mean)
	}

	// The windowed drift view saw every sample too.
	ds := s.shadow.driftStates()
	if len(ds) != 1 || ds[0].Samples != n || ds[0].Firing {
		t.Fatalf("drift states = %+v", ds)
	}
	if math.Abs(ds[0].MeanPct-gotMean) > 1e-9 {
		t.Fatalf("windowed mean %.12f != cumulative mean %.12f", ds[0].MeanPct, gotMean)
	}
}

// TestShadowDriftTripsReadyz: a model whose shadow error exceeds the
// configured threshold flips /readyz to 503 with a model_drift reason.
func TestShadowDriftTripsReadyz(t *testing.T) {
	obs.Reset()
	clk := newFakeClock()
	s := New(Options{
		ShadowFraction: 1,
		Clock:          clk.now,
		ShadowErrPct:   5,
	})
	m := buildTestModel(t, "drifty")
	if err := s.Registry().Add("drifty", m, ""); err != nil {
		t.Fatal(err)
	}
	// Inject drift directly at the accounting layer: the monitor's error
	// histogram is what driftStates reads, and feeding it here keeps the
	// test independent of simulator availability.
	st := s.shadow.stats("drifty")
	for i := 0; i < shadowMinSamples; i++ {
		st.hist.Observe(40) // 40% error, well past the 5% threshold
	}

	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	resp, body := getBody(t, hts.URL+"/readyz")
	if resp.StatusCode != 503 || !bytes.Contains([]byte(body), []byte("model_drift")) {
		t.Fatalf("drifting model: status %d body %s, want 503 model_drift", resp.StatusCode, body)
	}

	// Drift heals once the bad samples age out of the 1h window.
	clk.advance(obs.DefSlowWindow + obs.DefWindowBucket)
	obs.TickWindows()
	resp, body = getBody(t, hts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Fatalf("after samples aged out: status %d body %s, want 200", resp.StatusCode, body)
	}
}

// TestShadowNegativeErrPctNeverTrips: a negative threshold (what
// -shadow-err-pct 0 maps to) keeps the error histograms but never
// flips /readyz, however large the error.
func TestShadowNegativeErrPctNeverTrips(t *testing.T) {
	obs.Reset()
	s := New(Options{ShadowFraction: 1, ShadowErrPct: -1})
	if err := s.Registry().Add("calm", buildTestModel(t, "calm"), ""); err != nil {
		t.Fatal(err)
	}
	st := s.shadow.stats("calm")
	for i := 0; i < shadowMinSamples; i++ {
		st.hist.Observe(400)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	if resp, body := getBody(t, hts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d (%s), want 200: a negative threshold never trips", resp.StatusCode, body)
	}
}

// TestShadowOfferAfterStop is the regression test for the shutdown
// straggler race: a handler that outlives the drain deadline and offers
// a sample after stop() must have it dropped and counted — before the
// closed flag existed this was a guaranteed panic (send on closed
// channel).
func TestShadowOfferAfterStop(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "straggler")
	e := &Entry{Name: "straggler", Model: m}
	opt := Options{ShadowFraction: 1}.withDefaults()

	mon := newShadowMonitor(opt, nil)
	mon.stop()
	mon.offer(e, m.Configs[0], 1.0) // must not panic
	if obs.NewCounter("serve.shadow_dropped").Value() == 0 {
		t.Fatal("offer after stop was not counted as dropped")
	}

	// The same interleaving under contention: many stragglers offering
	// while stop runs concurrently. Run under -race this also proves the
	// closed flag is properly synchronized.
	mon2 := newShadowMonitor(opt, nil)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				mon2.offer(e, m.Configs[i%len(m.Configs)], 1.0)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		mon2.stop()
	}()
	close(start)
	wg.Wait()
	mon2.drain()
}

// TestShadowLimitBoundaries: the fraction→hash-threshold conversion is
// exact at the boundaries and never performs an implementation-defined
// out-of-range float→uint64 conversion. float64(MaxUint64) rounds to
// 2^64 exactly, and the largest double below 1 times 2^64 is
// 2^64 − 2^11 — representable, so the clamp guards the conversion
// without changing any reachable value.
func TestShadowLimitBoundaries(t *testing.T) {
	cases := []struct {
		frac float64
		want uint64
	}{
		{0, 0},
		{-0.5, 0},
		{1, math.MaxUint64},
		{1.5, math.MaxUint64},
		{0.5, 1 << 63},
		{0.25, 1 << 62},
		// The largest double below 1: (1 − 2⁻⁵³)·2⁶⁴ = 2⁶⁴ − 2¹¹.
		{math.Nextafter(1, 0), math.MaxUint64 - 2047},
	}
	for _, c := range cases {
		if got := shadowLimit(c.frac); got != c.want {
			t.Errorf("shadowLimit(%v) = %d, want %d", c.frac, got, c.want)
		}
	}
	// Every fraction in (0,1) stays strictly inside the uint64 range.
	for _, f := range []float64{1e-18, 0.1, 0.9, 0.999999, math.Nextafter(1, 0)} {
		got := shadowLimit(f)
		if got == 0 {
			t.Errorf("shadowLimit(%v) = 0; positive fraction lost all hash space", f)
		}
	}
}

// edpMCF builds an EDP model of mcf (12 points, 2000-instruction
// traces) as predperf would, stamped with the simulation it was built
// on, saves it as the only file of a fresh model directory, and returns
// the directory, the model and the EDP evaluator it was built with.
func edpMCF(t *testing.T) (string, *core.Model, *core.SimEvaluator) {
	t.Helper()
	const traceLen = 2000
	base, err := core.NewSimEvaluator("mcf", traceLen)
	if err != nil {
		t.Fatal(err)
	}
	ev := base.WithMetric(core.MetricEDP)
	m, err := core.BuildRBFModel(ev, 12, core.Options{LHSCandidates: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Name, m.TraceLen, m.Metric = "mcf", traceLen, core.MetricEDP
	dir := t.TempDir()
	saveModel(t, m, filepath.Join(dir, "mcf.json"))
	return dir, m, ev
}

// TestShadowVerifiesEDPModelOnItsOwnSimulation: the shadow check
// re-simulates an EDP model on the EDP metric at the model's own trace
// length. After one 12-config batch its mean error equals the
// build-time validation error on the same quantized configs, and the
// model does not drift. Re-simulated as CPI it read a 30,494% mean
// error and flipped /readyz to 503 model_drift.
func TestShadowVerifiesEDPModelOnItsOwnSimulation(t *testing.T) {
	obs.Reset()
	dir, _, ev := edpMCF(t)
	s := New(Options{ModelDir: dir, ShadowFraction: 1, Clock: newFakeClock().now})
	if names, err := s.Registry().LoadDir(""); err != nil || len(names) != 1 {
		t.Fatalf("LoadDir = %v, %v", names, err)
	}
	e, _ := s.Registry().Get("mcf")
	m := e.Model // as loaded from the file
	if m.TraceLen != 2000 || m.Metric != core.MetricEDP {
		t.Fatalf("loaded model names trace_len %d metric %v, want 2000 and EDP", m.TraceLen, m.Metric)
	}

	raw := core.NewTestSet(ev, m.Space, 12, 5)
	ts := &core.TestSet{Actual: make([]float64, len(raw.Configs))}
	var req struct {
		Model   string               `json:"model"`
		Configs []cluster.WireConfig `json:"configs"`
	}
	req.Model = "mcf"
	for i, c := range raw.Configs {
		q := m.Space.Decode(m.Space.Encode(c), m.SampleSize)
		ts.Configs = append(ts.Configs, q)
		ts.Actual[i] = ev.Eval(q)
		req.Configs = append(req.Configs, cluster.FromConfig(q))
	}
	want := m.Validate(ts)

	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	js, _ := json.Marshal(req)
	if resp, body := postJSON(t, hts.URL+"/v1/predict", string(js)); resp.StatusCode != 200 {
		t.Fatalf("predict = %d: %s", resp.StatusCode, body)
	}
	s.shadow.drain()

	st, ok := s.shadow.modelStats("mcf")
	if !ok || st.hist.Count() != int64(len(ts.Configs)) {
		t.Fatalf("shadow processed %v samples, want %d", st, len(ts.Configs))
	}
	got := st.hist.Sum() / float64(st.hist.Count())
	if math.Abs(got-want.Mean) > 1e-9*math.Max(1, want.Mean) {
		t.Fatalf("shadow mean error %.12f%%, want the build-time validation error %.12f%%", got, want.Mean)
	}
	if resp, body := getBody(t, hts.URL+"/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d (%s), want 200: the model agrees with its own simulation (mean %.2f%%)", resp.StatusCode, body, got)
	}
}

// TestSearchVerifiesEDPModelOnItsOwnSimulation: a simulator-verified
// search on an EDP model reports, for every shortlisted candidate, the
// EDP the simulator gives at the model's trace length, not its CPI.
func TestSearchVerifiesEDPModelOnItsOwnSimulation(t *testing.T) {
	obs.Reset()
	dir, _, ev := edpMCF(t)
	s := New(Options{ModelDir: dir})
	if _, err := s.Registry().LoadDir(""); err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(s.Handler())
	defer hts.Close()
	resp, body := postJSON(t, hts.URL+"/v1/search", `{"model":"mcf","verify":"sim","grid_levels":2,"shortlist":4}`)
	if resp.StatusCode != 200 {
		t.Fatalf("search = %d: %s", resp.StatusCode, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if sr.VerifiedBy != "simulator" || len(sr.Shortlist) != 4 {
		t.Fatalf("verified by %q with %d candidates, want the simulator and 4", sr.VerifiedBy, len(sr.Shortlist))
	}
	for i, c := range sr.Shortlist {
		if want := ev.Eval(c.Config.Config()); c.Actual != want {
			t.Errorf("shortlist %d: actual %v, want the EDP at 2000 instructions %v", i, c.Actual, want)
		}
	}
}

// TestModelWithoutTraceLenIsNotSimVerified: a model file that names a
// benchmark but no trace length, as every file written before the
// field existed, is not simulator-verified, and neither is one that
// names a trace length but a benchmark the trace generator does not
// know. For each, verify "sim" answers 400 no_simulator, "auto" falls
// back to the model, and a shadow sample counts as a simulation
// failure.
func TestModelWithoutTraceLenIsNotSimVerified(t *testing.T) {
	obs.Reset()
	dir := t.TempDir()
	saveModel(t, buildTestModel(t, "mcf"), filepath.Join(dir, "mcf.json"))
	unknown := buildTestModel(t, "nosuchbench")
	unknown.TraceLen = 2000
	saveModel(t, unknown, filepath.Join(dir, "nosuchbench.json"))
	s := New(Options{ModelDir: dir, ShadowFraction: 1})
	if _, err := s.Registry().LoadDir(""); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	failures := obs.NewCounter("serve.shadow_sim_failures")
	for _, name := range []string{"mcf", "nosuchbench"} {
		if rec := postRecorded(h, "/v1/search", `{"model":"`+name+`","verify":"sim","grid_levels":2,"shortlist":2}`); rec.Code != http.StatusBadRequest ||
			!strings.Contains(rec.Body.String(), `"no_simulator"`) {
			t.Fatalf("%s, verify sim: %d %s, want 400 no_simulator", name, rec.Code, rec.Body)
		}
		if rec := postRecorded(h, "/v1/search", `{"model":"`+name+`","grid_levels":2,"shortlist":2}`); rec.Code != http.StatusOK ||
			!strings.Contains(rec.Body.String(), `"verified_by":"model"`) {
			t.Fatalf("%s, verify auto: %d %s, want 200 verified by the model", name, rec.Code, rec.Body)
		}
		before := failures.Value()
		e, _ := s.Registry().Get(name)
		s.shadow.offer(e, e.Model.Configs[0], 1)
		s.shadow.drain()
		if got := failures.Value() - before; got != 1 {
			t.Fatalf("%s: serve.shadow_sim_failures rose by %d, want 1", name, got)
		}
	}
}
