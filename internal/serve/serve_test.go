package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/rbf"
	"predperf/internal/role"
	"predperf/internal/search"
)

// syntheticCPI is a smooth non-linear ground truth, cheap enough that a
// model builds in milliseconds.
func syntheticCPI(c design.Config) float64 {
	l2 := float64(c.L2SizeKB)
	return 0.6 +
		1.5*math.Exp(-l2/1500)*(float64(c.L2Lat)/20) +
		0.5*float64(c.PipeDepth)/24 +
		12/float64(c.ROBSize) +
		0.2*float64(c.DL1Lat)/4*(64/float64(c.DL1SizeKB))*0.2
}

func buildTestModel(t testing.TB, name string) *core.Model {
	t.Helper()
	m, err := core.BuildRBFModel(core.FuncEvaluator(syntheticCPI), 40, core.Options{
		LHSCandidates: 16,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Name = name
	return m
}

func saveModel(t *testing.T, m *core.Model, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestEndToEnd is the acceptance path: build a small model, save it,
// serve it, and check the HTTP answers against the in-process ones.
func TestEndToEnd(t *testing.T) {
	obs.Reset()
	m := buildTestModel(t, "synthetic")
	dir := t.TempDir()
	path := filepath.Join(dir, "synthetic.json")
	saveModel(t, m, path)

	s := New(Options{ModelDir: dir})
	if names, err := s.Registry().LoadDir(""); err != nil || len(names) != 1 || names[0] != "synthetic" {
		t.Fatalf("LoadDir = %v, %v", names, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	// Batch predict over training configs (on-grid, so quantization is
	// the identity) must be bit-identical to in-process predictions.
	batch := m.Configs[:10]
	var reqBody struct {
		Model   string               `json:"model"`
		Configs []cluster.WireConfig `json:"configs"`
	}
	reqBody.Model = "synthetic"
	for _, c := range batch {
		reqBody.Configs = append(reqBody.Configs, cluster.FromConfig(c))
	}
	js, _ := json.Marshal(reqBody)
	resp2, body := postJSON(t, ts.URL+"/v1/predict", string(js))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp2.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Predictions) != len(batch) {
		t.Fatalf("got %d predictions, want %d", len(pr.Predictions), len(batch))
	}
	for i, p := range pr.Predictions {
		want := m.PredictConfig(batch[i])
		if p.Value != want {
			t.Fatalf("prediction %d = %v, want bit-identical %v", i, p.Value, want)
		}
		if p.Config != cluster.FromConfig(batch[i]) {
			t.Fatalf("prediction %d echoed %+v, want %+v (on-grid input must not move)",
				i, p.Config, cluster.FromConfig(batch[i]))
		}
		if p.Clamped {
			t.Fatalf("prediction %d marked clamped for an on-grid input", i)
		}
	}

	// A second identical batch must be served from the cache.
	_, body = postJSON(t, ts.URL+"/v1/predict", string(js))
	var pr2 predictResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	for i, p := range pr2.Predictions {
		if !p.Cached {
			t.Fatalf("repeat prediction %d not served from cache", i)
		}
		if p.Value != pr.Predictions[i].Value {
			t.Fatalf("cached value diverged at %d", i)
		}
	}

	// Search must match an in-process search.Minimize run with the same
	// options and the same (model-backed) evaluator.
	resp3, body := postJSON(t, ts.URL+"/v1/search",
		`{"model":"synthetic","grid_levels":3,"shortlist":4,"verify":"model"}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("search status %d: %s", resp3.StatusCode, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want, err := search.Minimize(m, modelEvaluator{m}, search.Options{
		Space: m.Space, GridLevels: 3, Shortlist: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Best.Config != cluster.FromConfig(want.Best) {
		t.Fatalf("search best %+v, want %+v", sr.Best.Config, cluster.FromConfig(want.Best))
	}
	if sr.Best.Actual != want.BestValue || sr.Best.Predicted != m.PredictConfig(want.Best) {
		t.Fatalf("search best values (%v, %v), want (%v, %v)",
			sr.Best.Predicted, sr.Best.Actual, m.PredictConfig(want.Best), want.BestValue)
	}
	if sr.Evaluated != want.Evaluated || sr.Verified != want.Verified || sr.VerifiedBy != "model" {
		t.Fatalf("search accounting %+v vs %+v", sr, want)
	}

	// metricz must reflect the traffic above.
	resp4, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ReadReport(resp4.Body)
	resp4.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["serve.predicts"] < 2 {
		t.Fatalf("serve.predicts = %d, want >= 2", rep.Counters["serve.predicts"])
	}
	if rep.Counters["serve.batch_points"] < int64(2*len(batch)) {
		t.Fatalf("serve.batch_points = %d, want >= %d", rep.Counters["serve.batch_points"], 2*len(batch))
	}
	if rep.Counters["serve.cache_hits"] < int64(len(batch)) {
		t.Fatalf("serve.cache_hits = %d, want >= %d", rep.Counters["serve.cache_hits"], len(batch))
	}
	if rep.Counters["serve.searches"] != 1 {
		t.Fatalf("serve.searches = %d, want 1", rep.Counters["serve.searches"])
	}
	if rep.Counters["serve.model_loads"] != 1 {
		t.Fatalf("serve.model_loads = %d, want 1", rep.Counters["serve.model_loads"])
	}
}

// TestPredictStorm hammers /v1/predict from many goroutines with
// overlapping configurations; under -race this proves the registry,
// cache, and par fan-out compose race-free.
func TestPredictStorm(t *testing.T) {
	m := buildTestModel(t, "storm")
	s := New(Options{})
	if err := s.Registry().Add("storm", m, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := make([]float64, len(m.Configs))
	for i, c := range m.Configs {
		want[i] = m.PredictConfig(c)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				var req struct {
					Model   string               `json:"model"`
					Configs []cluster.WireConfig `json:"configs"`
				}
				req.Model = "storm"
				// Overlapping slices so goroutines contend on cache keys.
				lo := (g + rep) % (len(m.Configs) - 8)
				for _, c := range m.Configs[lo : lo+8] {
					req.Configs = append(req.Configs, cluster.FromConfig(c))
				}
				js, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(js))
				if err != nil {
					errs <- err
					return
				}
				var pr predictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for i, p := range pr.Predictions {
					if p.Value != want[lo+i] {
						errs <- fmt.Errorf("goroutine %d: value %v, want %v", g, p.Value, want[lo+i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPredictClampsOutOfRange(t *testing.T) {
	m := buildTestModel(t, "clamp")
	s := New(Options{})
	if err := s.Registry().Add("clamp", m, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// ROB far beyond the space's High=128 must clamp, and the served
	// value must equal predicting the echoed quantized machine.
	_, body := postJSON(t, ts.URL+"/v1/predict",
		`{"model":"clamp","config":{"depth":12,"rob":100000,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`)
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if len(pr.Predictions) != 1 {
		t.Fatalf("got %d predictions", len(pr.Predictions))
	}
	p := pr.Predictions[0]
	if !p.Clamped {
		t.Fatal("out-of-range config not marked clamped")
	}
	if p.Config.ROB > 128 {
		t.Fatalf("echoed ROB %d not clamped into the space", p.Config.ROB)
	}
	if want := m.PredictConfig(p.Config.Config()); p.Value != want {
		t.Fatalf("value %v, want %v (prediction of the echoed machine)", p.Value, want)
	}
}

func TestHotLoadAndList(t *testing.T) {
	m := buildTestModel(t, "hot")
	dir := t.TempDir()
	path := filepath.Join(dir, "hot.json")
	saveModel(t, m, path)

	s := New(Options{ModelDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty registry: predict is a structured 404.
	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"model":"hot","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "unknown_model") {
		t.Fatalf("want structured 404, got %d: %s", resp.StatusCode, body)
	}

	// Hot-load by relative path, then serve.
	resp, body = postJSON(t, ts.URL+"/v1/models/load", `{"path":"hot.json"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status %d: %s", resp.StatusCode, body)
	}
	var lr struct {
		Loaded []string  `json:"loaded"`
		Model  modelInfo `json:"model"`
	}
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Loaded) != 1 || lr.Loaded[0] != "hot" || lr.Model.SampleSize != 40 {
		t.Fatalf("load reply %+v", lr)
	}

	resp2, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []modelInfo `json:"models"`
	}
	err = json.NewDecoder(resp2.Body).Decode(&list)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "hot" || list.Models[0].Benchmark != "hot" {
		t.Fatalf("models listing %+v", list)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/predict", `{"model":"hot","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after hot-load: %d", resp.StatusCode)
	}

	// Loads are confined to the model directory: absolute paths and
	// paths that escape after cleaning are refused without touching the
	// filesystem; a genuinely missing relative file is a load failure.
	for _, p := range []string{"/etc/passwd", "../hot.json", "a/../../hot.json"} {
		resp, body = postJSON(t, ts.URL+"/v1/models/load", `{"path":"`+p+`"}`)
		if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(body), "forbidden_path") {
			t.Errorf("load %q: status %d body %s, want 403 forbidden_path", p, resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/load", `{"dir":".."}`)
	if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(body), "forbidden_path") {
		t.Errorf("load dir ..: status %d body %s, want 403 forbidden_path", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/models/load", `{"path":"not-here.json"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "load_failed") {
		t.Errorf("load missing file: status %d body %s, want 400 load_failed", resp.StatusCode, body)
	}

	// {"dir":"."} reloads the model directory itself.
	resp, body = postJSON(t, ts.URL+"/v1/models/load", `{"dir":"."}`)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "hot") {
		t.Errorf("reload dir .: status %d body %s", resp.StatusCode, body)
	}
}

// TestHotReloadInvalidatesCache replaces a model under a live registry
// name and checks the prediction cache cannot serve values computed by
// the replaced model: the first predict after the reload is a cache
// miss and bit-identical to the new model.
func TestHotReloadInvalidatesCache(t *testing.T) {
	m1 := buildTestModel(t, "reload")
	// A second model over a shifted ground truth, so its predictions
	// provably differ from m1's.
	m2, err := core.BuildRBFModel(core.FuncEvaluator(func(c design.Config) float64 {
		return syntheticCPI(c) + 1
	}), 40, core.Options{
		LHSCandidates: 16,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m2.Name = "reload"

	s := New(Options{})
	if err := s.Registry().Add("reload", m1, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg := cluster.FromConfig(m1.Configs[0])
	js, _ := json.Marshal(map[string]any{"model": "reload", "config": cfg})
	predict := func() prediction {
		t.Helper()
		_, body := postJSON(t, ts.URL+"/v1/predict", string(js))
		var pr predictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		if len(pr.Predictions) != 1 {
			t.Fatalf("got %d predictions", len(pr.Predictions))
		}
		return pr.Predictions[0]
	}

	before := predict()
	if before.Value != m1.PredictConfig(m1.Configs[0]) {
		t.Fatalf("pre-reload value %v, want %v", before.Value, m1.PredictConfig(m1.Configs[0]))
	}
	if !predict().Cached {
		t.Fatal("repeat predict not served from cache")
	}

	if err := s.Registry().Add("reload", m2, ""); err != nil {
		t.Fatal(err)
	}
	after := predict()
	if after.Cached {
		t.Fatal("first predict after hot-reload served from the stale cache")
	}
	if want := m2.PredictConfig(m1.Configs[0]); after.Value != want {
		t.Fatalf("post-reload value %v, want new model's %v (stale was %v)", after.Value, want, before.Value)
	}
	if after.Value == before.Value {
		t.Fatal("test models predict identically; shifted ground truth did not shift the fit")
	}
}

// TestAddRejectsUndecodableSpace: a model whose persisted space lacks a
// paper parameter must fail registration with a structured error, not
// panic inside the first /v1/predict.
func TestAddRejectsUndecodableSpace(t *testing.T) {
	m := buildTestModel(t, "bad")
	m.Space = &design.Space{Params: m.Space.Params[:len(m.Space.Params)-1]} // drop dl1_lat
	r := NewRegistry("")
	if err := r.Add("bad", m, ""); err == nil || !strings.Contains(err.Error(), design.DL1Lat) {
		t.Fatalf("Add = %v, want error naming the missing parameter %q", err, design.DL1Lat)
	}

	// The same model arriving through the hot-load path is rejected too.
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	saveModel(t, m, path)
	r2 := NewRegistry(dir)
	if _, err := r2.LoadFile("bad.json", ""); err == nil {
		t.Fatal("LoadFile registered a model with an undecodable space")
	}
	if r2.Len() != 0 {
		t.Fatalf("registry holds %d models after a rejected load", r2.Len())
	}
}

// TestLoadDirAllOrNothing: one bad file in a directory load leaves the
// registry exactly as it was, so the client never observes a partially
// applied load after an error response.
func TestLoadDirAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	saveModel(t, buildTestModel(t, "good"), filepath.Join(dir, "good.json"))
	// Sorts after good.json, so staging is what protects the registry.
	if err := os.WriteFile(filepath.Join(dir, "zzz-bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(dir)
	names, err := r.LoadDir("")
	if err == nil {
		t.Fatalf("LoadDir succeeded over a corrupt file: %v", names)
	}
	if !strings.Contains(err.Error(), "no models were registered") {
		t.Fatalf("LoadDir error %q does not state the registry is untouched", err)
	}
	if r.Len() != 0 {
		t.Fatalf("registry holds %d models after a failed directory load", r.Len())
	}
}

// postRecorded posts body to path through h in-process and returns the
// recorded response.
func postRecorded(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// requireTimeout fails t unless rec is the structured 503 timeout, as
// application/json.
func requireTimeout(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var body struct {
		Error obs.APIError `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%v in %s", err, rec.Body)
	}
	if body.Error.Code != "timeout" {
		t.Fatalf("error code %q, want %q", body.Error.Code, "timeout")
	}
}

// TestTimeoutResponseIsJSON: the one error shape http.TimeoutHandler
// writes itself must still reach clients as application/json, both
// from role.WithTimeout alone and from /v1/search through the server's
// own wiring, where a simulator-verified search must keep its bound.
func TestTimeoutResponseIsJSON(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // TimeoutHandler cancels this at the deadline
	})
	rec := httptest.NewRecorder()
	role.WithTimeout(slow, 20*time.Millisecond, "server").ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	requireTimeout(t, rec)

	// The search's simulator is held until the test ends, so only the
	// route's own deadline can answer.
	gate := make(chan struct{})
	defer close(gate)
	srv := New(Options{Timeout: time.Millisecond})
	defer srv.coalesce.stop()
	srv.Registry().SetEvalFactory(func(string, int, core.Metric) (core.Evaluator, error) {
		return core.FuncEvaluator(func(c design.Config) float64 {
			<-gate
			return syntheticCPI(c)
		}), nil
	})
	m := buildTestModel(t, "mcf")
	m.TraceLen = 2000
	if err := srv.Registry().Add("mcf", m, ""); err != nil {
		t.Fatal(err)
	}
	requireTimeout(t, postRecorded(srv.Handler(), "/v1/search",
		`{"model":"mcf","verify":"sim","grid_levels":2,"shortlist":2}`))
}

// TestPredictDeadline: a single prediction stuck in the coalescer
// answers the structured 503 timeout at the server's deadline, and the
// server keeps serving once the dispatcher moves again.
func TestPredictDeadline(t *testing.T) {
	m := buildTestModel(t, "deadline")
	s := New(Options{Timeout: 50 * time.Millisecond})
	if err := s.Registry().Add("deadline", m, ""); err != nil {
		t.Fatal(err)
	}
	// Registered first, so it runs after holdDispatcher's release.
	t.Cleanup(func() { s.coalesce.stop() })
	release, _ := holdDispatcher(t, s)
	h := s.Handler()
	body := fmt.Sprintf(`{"model":"deadline","config":%s}`, mustJSON(t, cluster.FromConfig(m.Configs[0])))

	start := time.Now()
	requireTimeout(t, postRecorded(h, "/v1/predict", body))
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("timeout answered after %v, want about 50ms", d)
	}

	release()
	rec := postRecorded(h, "/v1/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("after release: status %d: %s", rec.Code, rec.Body)
	}
	var pr predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || len(pr.Predictions) != 1 {
		t.Fatalf("after release: %v in %s", err, rec.Body)
	}
	if got, want := pr.Predictions[0].Value, m.PredictConfig(m.Configs[0]); got != want {
		t.Fatalf("after release: value %v, want %v", got, want)
	}
}

// TestRejectedSingleNotCounted: serve.batch_points and the per-model
// prediction counter count scored configurations, so a single the
// coalescer refuses adds to neither, while serve.predicts still counts
// the request.
func TestRejectedSingleNotCounted(t *testing.T) {
	m := buildTestModel(t, "rejected")
	s := New(Options{})
	if err := s.Registry().Add("rejected", m, ""); err != nil {
		t.Fatal(err)
	}
	s.coalesce.stop()
	pts, model, reqs := cBatchPts.Value(), cModelPredictions.With("rejected").Value(), cPredicts.Value()
	body := fmt.Sprintf(`{"model":"rejected","config":%s}`, mustJSON(t, cluster.FromConfig(m.Configs[0])))
	rec := postRecorded(s.Handler(), "/v1/predict", body)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"shutting_down"`) {
		t.Fatalf("single after stop: %d %s, want 503 shutting_down", rec.Code, rec.Body)
	}
	if got := cBatchPts.Value() - pts; got != 0 {
		t.Errorf("serve.batch_points rose by %d for a rejected single", got)
	}
	if got := cModelPredictions.With("rejected").Value() - model; got != 0 {
		t.Errorf("serve.model_predictions{rejected} rose by %d for a rejected single", got)
	}
	if got := cPredicts.Value() - reqs; got != 1 {
		t.Errorf("serve.predicts rose by %d, want 1 per request", got)
	}
}

func TestStructuredErrors(t *testing.T) {
	m := buildTestModel(t, "errs")
	s := New(Options{})
	if err := s.Registry().Add("errs", m, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	okCfg := `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`
	// One configuration past the batch limit, well inside the 1 MiB body
	// limit.
	tooMany := strings.Repeat(okCfg+`,`, maxBatch) + okCfg
	cases := []struct {
		name, url, body string
		status          int
		code            string
	}{
		{"bad json", "/v1/predict", `{`, http.StatusBadRequest, "bad_json"},
		{"no model", "/v1/predict", `{"config":` + okCfg + `}`, http.StatusBadRequest, "bad_request"},
		{"unknown model", "/v1/predict", `{"model":"nope","config":` + okCfg + `}`, http.StatusNotFound, "unknown_model"},
		{"no config", "/v1/predict", `{"model":"errs"}`, http.StatusBadRequest, "bad_request"},
		{"both config kinds", "/v1/predict", `{"model":"errs","config":` + okCfg + `,"configs":[` + okCfg + `]}`, http.StatusBadRequest, "bad_request"},
		{"invalid config", "/v1/predict", `{"model":"errs","config":{"depth":12,"rob":0,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`, http.StatusBadRequest, "invalid_config"},
		{"batch too large", "/v1/predict", `{"model":"errs","configs":[` + tooMany + `]}`, http.StatusRequestEntityTooLarge, "batch_too_large"},
		{"search unknown model", "/v1/search", `{"model":"nope"}`, http.StatusNotFound, "unknown_model"},
		{"search bad verify", "/v1/search", `{"model":"errs","verify":"psychic"}`, http.StatusBadRequest, "bad_request"},
		{"search needs sim", "/v1/search", `{"model":"errs","verify":"sim"}`, http.StatusBadRequest, "no_simulator"},
		{"search shortlist past the ceiling", "/v1/search", `{"model":"errs","shortlist":65}`, http.StatusBadRequest, "bad_request"},
		{"search shortlist 2^62", "/v1/search", `{"model":"errs","shortlist":4611686018427387904}`, http.StatusBadRequest, "bad_request"},
		{"search grid past the cap", "/v1/search", `{"model":"errs","grid_levels":6}`, http.StatusBadRequest, "bad_request"},
		{"search grid 2^62", "/v1/search", `{"model":"errs","grid_levels":4611686018427387904}`, http.StatusBadRequest, "bad_request"},
		{"load without path", "/v1/models/load", `{}`, http.StatusBadRequest, "bad_request"},
		// This server has no -models directory, so hot-loading anything
		// is refused outright.
		{"load without model dir", "/v1/models/load", `{"path":"here.json"}`, http.StatusForbidden, "forbidden_path"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.code) {
			t.Errorf("%s: status %d body %s, want %d with code %q", tc.name, resp.StatusCode, body, tc.status, tc.code)
		}
	}

	// Oversize body → 413, against a server with a 512-byte limit.
	small := New(Options{MaxBodyBytes: 512})
	if err := small.Registry().Add("errs", m, ""); err != nil {
		t.Fatal(err)
	}
	smallTS := httptest.NewServer(small.Handler())
	defer smallTS.Close()
	big := `{"model":"errs","configs":[` + okCfg
	for len(big) < 600 {
		big += `,` + okCfg
	}
	big += `]}`
	resp, body := postJSON(t, smallTS.URL+"/v1/predict", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "body_too_large") {
		t.Errorf("oversize body: status %d body %s", resp.StatusCode, body)
	}

	// Wrong method → 405.
	resp2, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict = %d, want 405", resp2.StatusCode)
	}
}

// TestGracefulShutdown serves on a real listener and checks that
// Shutdown drains cleanly: Serve returns nil and the port closes.
func TestGracefulShutdown(t *testing.T) {
	m := buildTestModel(t, "bye")
	s := New(Options{})
	if err := s.Registry().Add("bye", m, ""); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	url := "http://" + l.Addr().String()
	if resp, err := http.Get(url + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRU(2)
	c.Put([]byte("a"), 1)
	c.Put([]byte("b"), 2)
	if v, ok := c.Get([]byte("a")); !ok || v != 1 {
		t.Fatalf("a = %v,%v", v, ok)
	}
	c.Put([]byte("c"), 3) // evicts b (a was refreshed by the Get)
	if _, ok := c.Get([]byte("b")); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get([]byte("a")); !ok {
		t.Fatal("a evicted despite being most recently used")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	c.Put([]byte("a"), 10) // refresh value in place
	if v, _ := c.Get([]byte("a")); v != 10 {
		t.Fatalf("refreshed a = %v", v)
	}
}

// TestCacheKeyExact: the LRU key tells apart every (name, generation,
// config) triple, including ones whose parts would run together if
// simply concatenated, and a lookup through it allocates nothing.
func TestCacheKeyExact(t *testing.T) {
	cfg := design.Config{PipeDepth: 12, ROBSize: 96, IQSize: 48, LSQSize: 48,
		L2SizeKB: 2048, L2Lat: 10, IL1SizeKB: 32, DL1SizeKB: 32, DL1Lat: 2}
	swapped := cfg
	swapped.IQSize, swapped.LSQSize = 47, 49
	wide := cfg
	wide.PipeDepth = 1 << 20
	keys := map[string]string{}
	for _, k := range []struct {
		name string
		gen  uint64
		cfg  design.Config
	}{
		{"a", 12, cfg}, {"a1", 2, cfg}, {"a", 1, cfg}, {"", 1, cfg},
		{"a", 12, swapped}, {"a", 12, wide},
	} {
		key := string(cacheKey(nil, &Entry{Name: k.name, gen: k.gen}, k.cfg))
		desc := fmt.Sprintf("%q gen %d %+v", k.name, k.gen, k.cfg)
		if prev, dup := keys[key]; dup {
			t.Fatalf("%s and %s share a cache key", prev, desc)
		}
		keys[key] = desc
	}
	e := &Entry{Name: "a", gen: 12}
	c := newLRU(4)
	var kb [64]byte
	c.Put(cacheKey(kb[:0], e, cfg), 1)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(cacheKey(kb[:0], e, cfg)); !ok {
			t.Fatal("cached key missed")
		}
	}); n != 0 {
		t.Fatalf("a cache lookup allocates %v times, want 0", n)
	}
}

func TestRegistryNaming(t *testing.T) {
	dir := t.TempDir()
	// A model with no persisted name falls back to the file base name.
	m := buildTestModel(t, "")
	path := filepath.Join(dir, "fallback.json")
	saveModel(t, m, path)
	r := NewRegistry(dir)
	name, err := r.LoadFile("fallback.json", "")
	if err != nil {
		t.Fatal(err)
	}
	if name != "fallback" {
		t.Fatalf("registry name %q, want file base %q", name, "fallback")
	}
	// An explicit name wins over everything.
	name, err = r.LoadFile("fallback.json", "forced")
	if err != nil {
		t.Fatal(err)
	}
	if name != "forced" {
		t.Fatalf("registry name %q, want %q", name, "forced")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "fallback" || got[1] != "forced" {
		t.Fatalf("names %v", got)
	}
	if err := r.Add("", m, ""); err == nil {
		t.Fatal("Add accepted an empty name")
	}
	if err := r.Add("nil", nil, ""); err == nil {
		t.Fatal("Add accepted a nil model")
	}
}
