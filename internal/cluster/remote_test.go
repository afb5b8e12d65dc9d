package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"predperf"
	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/evaltest"
	"predperf/internal/rbf"
	"predperf/internal/role"
)

const (
	testBench = "mcf"
	testInsts = 2000
)

// newWorkerServer starts a sim worker over httptest and returns its URL.
func newWorkerServer(t *testing.T, opt cluster.WorkerOptions) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(cluster.NewWorker(opt).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newFarm(t *testing.T, workers int, opt cluster.PoolOptions) *cluster.Pool {
	t.Helper()
	urls := make([]string, workers)
	for i := range urls {
		urls[i] = newWorkerServer(t, cluster.WorkerOptions{}).URL
	}
	pool, err := cluster.NewPool(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// ---- worker endpoint ----

func postEval(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("non-JSON error body %q: %v", body, err)
	}
	return e.Error.Code
}

func TestWorkerEvalValidation(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{MaxBatch: 2, MaxTraceLen: 10_000})
	goodCfg := `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"missing benchmark", `{"trace_len":1000,"configs":[` + goodCfg + `]}`, 400, "bad_request"},
		{"zero trace", `{"benchmark":"mcf","trace_len":0,"configs":[` + goodCfg + `]}`, 400, "bad_request"},
		{"trace too long", `{"benchmark":"mcf","trace_len":99999999,"configs":[` + goodCfg + `]}`, 400, "trace_too_long"},
		{"no configs", `{"benchmark":"mcf","trace_len":1000,"configs":[]}`, 400, "bad_request"},
		{"batch too large", `{"benchmark":"mcf","trace_len":1000,"configs":[` + goodCfg + `,` + goodCfg + `,` + goodCfg + `]}`, 413, "batch_too_large"},
		{"bad metric", `{"benchmark":"mcf","trace_len":1000,"metric":"nope","configs":[` + goodCfg + `]}`, 400, "bad_request"},
		{"invalid config", `{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":0,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`, 400, "invalid_config"},
		{"unknown benchmark", `{"benchmark":"nosuch","trace_len":1000,"configs":[` + goodCfg + `]}`, 400, "unknown_benchmark"},
		{"unknown field", `{"benchmark":"mcf","trace_len":1000,"zzz":1,"configs":[` + goodCfg + `]}`, 400, "bad_json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postEval(t, srv.URL, c.body)
			if resp.StatusCode != c.status || errCode(t, body) != c.code {
				t.Fatalf("status %d code %q, want %d %q (body %s)",
					resp.StatusCode, errCode(t, body), c.status, c.code, body)
			}
		})
	}

	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/eval")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/eval = %d, want 405", resp.StatusCode)
	}
}

// TestWorkerEvalRejectsConfigsPastCeilings: the simulator sizes its
// structures from the config, so a worker answers 400 invalid_config,
// naming the field, for any field past its ceiling. Two configs with a
// ROB of 2^62 used to panic a par.For goroutine in makeslice, which
// killed the process. A config at every ceiling is still simulated.
func TestWorkerEvalRejectsConfigsPastCeilings(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{})
	eval := func(cfgs ...string) (*http.Response, []byte) {
		return postEval(t, srv.URL, `{"benchmark":"mcf","trace_len":1000,"configs":[`+strings.Join(cfgs, ",")+`]}`)
	}
	huge := `{"depth":12,"rob":4611686018427387904,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`
	resp, body := eval(huge, huge)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "invalid_config" || !strings.Contains(string(body), `\"rob\"`) {
		t.Fatalf("ROB 2^62 = %d %s, want 400 invalid_config naming rob", resp.StatusCode, body)
	}

	top := map[string]int{"depth": 96, "rob": 512, "iq": 512, "lsq": 512,
		"l2kb": 32768, "l2lat": 80, "il1kb": 256, "dl1kb": 256, "dl1lat": 16}
	js, _ := json.Marshal(top)
	if resp, body := eval(string(js)); resp.StatusCode != http.StatusOK {
		t.Fatalf("config at every ceiling = %d %s, want 200", resp.StatusCode, body)
	}
	for field := range top {
		top[field]++
		js, _ := json.Marshal(top)
		top[field]--
		resp, body := eval(string(js))
		if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != "invalid_config" ||
			!strings.Contains(string(body), `\"`+field+`\"`) {
			t.Errorf("%s one past its ceiling = %d %s, want 400 invalid_config naming it", field, resp.StatusCode, body)
		}
	}
}

func TestWorkerEvalBitIdentical(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{})
	cfgs := evaltest.Configs(6)
	req := cluster.EvalRequest{Benchmark: testBench, TraceLen: testInsts}
	for _, c := range cfgs {
		req.Configs = append(req.Configs, cluster.FromConfig(c))
	}
	js, _ := json.Marshal(req)
	resp, body := postEval(t, srv.URL, string(js))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval failed: %d %s", resp.StatusCode, body)
	}
	var er cluster.EvalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Values) != len(cfgs) {
		t.Fatalf("%d values for %d configs", len(er.Values), len(cfgs))
	}
	if er.Sims != len(cfgs) {
		t.Fatalf("first request paid %d sims for %d fresh configs", er.Sims, len(cfgs))
	}
	local, err := core.NewSimEvaluator(testBench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cfgs {
		if want := local.Eval(c); er.Values[i] != want {
			t.Fatalf("config %d: remote %v != local %v", i, er.Values[i], want)
		}
	}

	// The worker memoizes: repeating the request costs zero simulations.
	resp, body = postEval(t, srv.URL, string(js))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat eval failed: %d %s", resp.StatusCode, body)
	}
	var er2 cluster.EvalResponse
	json.Unmarshal(body, &er2)
	if er2.Sims != 0 {
		t.Fatalf("repeat request re-simulated %d configs", er2.Sims)
	}
	for i := range er.Values {
		if er2.Values[i] != er.Values[i] {
			t.Fatalf("config %d: cached value drifted", i)
		}
	}
}

func TestWorkerRequestIDEcho(t *testing.T) {
	srv := newWorkerServer(t, cluster.WorkerOptions{})
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set(role.RequestIDHeader, "ride-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(role.RequestIDHeader); got != "ride-42" {
		t.Fatalf("request ID not echoed: %q", got)
	}
}

// ---- RemoteEvaluator conformance + behavior ----

func TestRemoteEvaluatorConformance(t *testing.T) {
	pool := newFarm(t, 2, cluster.PoolOptions{})
	evaltest.Run(t, evaltest.Harness{
		New: func(t *testing.T) core.Evaluator {
			return cluster.NewRemoteEvaluator(pool, testBench, testInsts, core.MetricCPI)
		},
		Sims: func(ev core.Evaluator) int {
			return ev.(*cluster.RemoteEvaluator).Simulations()
		},
		Canceled: func(t *testing.T) (core.Evaluator, func() error) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			re := cluster.NewRemoteEvaluator(pool, testBench, testInsts, core.MetricCPI)
			return re.Bind(ctx), re.Err
		},
	})
}

func TestRemoteEvaluatorMatchesLocalAcrossMetrics(t *testing.T) {
	pool := newFarm(t, 2, cluster.PoolOptions{})
	base, err := core.NewSimEvaluator(testBench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := evaltest.Configs(4)
	for _, metric := range []core.Metric{core.MetricCPI, core.MetricEPI, core.MetricEDP, core.MetricPower} {
		remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, metric)
		local := base.WithMetric(metric)
		for i, c := range cfgs {
			if r, l := remote.Eval(c), local.Eval(c); r != l {
				t.Fatalf("%s config %d: remote %v != local %v", metric, i, r, l)
			}
		}
	}
}

func TestRemoteEvaluatorBatchFansOut(t *testing.T) {
	pool := newFarm(t, 2, cluster.PoolOptions{BatchChunk: 4})
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, core.MetricCPI)
	cfgs := evaltest.Configs(10)
	vals, err := remote.EvalBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := core.NewSimEvaluator(testBench, testInsts)
	for i, c := range cfgs {
		if want := local.Eval(c); vals[i] != want {
			t.Fatalf("config %d: batch value %v != local %v", i, vals[i], want)
		}
	}
	// Batch results land in the cache: per-config Eval is free and equal.
	before := remote.Simulations()
	for i, c := range cfgs {
		if got := remote.Eval(c); got != vals[i] {
			t.Fatalf("config %d: Eval after batch %v != %v", i, got, vals[i])
		}
	}
	if after := remote.Simulations(); after != before {
		t.Fatalf("Eval after EvalBatch refetched: %d → %d", before, after)
	}
}

func TestRemoteEvaluatorFarmDown(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // nothing listens: every attempt is a transport error
	pool, err := cluster.NewPool([]string{dead.URL}, cluster.PoolOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, ReadmitAfter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, core.MetricCPI)
	if v := remote.Eval(evaltest.Configs(1)[0]); !math.IsNaN(v) {
		t.Fatalf("dead farm answered %v, want NaN", v)
	}
	if remote.Err() == nil {
		t.Fatal("dead farm reported no error")
	}
}

// ---- the acceptance test: distributed build, bit-identical, survives
// a worker loss mid-build ----

// killAfter closes a worker after n evaluations, deterministically
// mid-build.
type killAfter struct {
	ev    core.Evaluator
	n     atomic.Int32
	after int32
	kill  func()
}

func (k *killAfter) Eval(c design.Config) float64 {
	if k.n.Add(1) == k.after {
		k.kill()
	}
	return k.ev.Eval(c)
}

func TestRemoteBuildBitIdenticalAndSurvivesWorkerLoss(t *testing.T) {
	opt := predperf.Options{
		LHSCandidates: 16,
		Seed:          3,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
	}
	const sample = 24

	// Reference: the plain in-process build.
	localBase, err := core.NewSimEvaluator(testBench, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := predperf.BuildModel(localBase, sample, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed build over two workers, one of which dies after the
	// 8th evaluation. Retries must re-route the in-flight work and the
	// resulting model must be bit-identical to the local one.
	doomed := httptest.NewServer(cluster.NewWorker(cluster.WorkerOptions{}).Handler())
	survivor := newWorkerServer(t, cluster.WorkerOptions{})
	pool, err := cluster.NewPool([]string{doomed.URL, survivor.URL}, cluster.PoolOptions{
		BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := cluster.NewRemoteEvaluator(pool, testBench, testInsts, core.MetricCPI)
	killed := make(chan struct{})
	ev := &killAfter{ev: remote, after: 8, kill: func() {
		doomed.CloseClientConnections()
		doomed.Close()
		close(killed)
	}}
	got, err := predperf.BuildModel(ev, sample, opt)
	if err != nil {
		t.Fatalf("distributed build failed after worker loss: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatal("the doomed worker was never killed; the test exercised nothing")
	}
	if err := remote.Err(); err != nil {
		t.Fatalf("build completed but the evaluator recorded an unrecovered error: %v", err)
	}

	var wantBuf, gotBuf bytes.Buffer
	if err := want.Save(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("distributed model is not bit-identical to the local build:\nlocal:  %.120s\nremote: %.120s",
			wantBuf.String(), gotBuf.String())
	}

	// The dead worker must be evicted from the pool by now.
	var evicted bool
	for _, ws := range pool.Snapshot() {
		if ws.URL == doomed.URL {
			evicted = ws.Evicted
		}
	}
	if !evicted {
		t.Error("killed worker still in rotation")
	}
	_ = fmt.Sprintf("%s", remote) // String() smoke
}
