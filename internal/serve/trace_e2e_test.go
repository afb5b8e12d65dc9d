package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/obs"
)

// traceStack is a full three-role deployment: a router fronting one
// predserve shard whose simulator consumers fan out to two sim workers.
type traceStack struct {
	serve   *Server
	router  *cluster.Router
	workers []*cluster.Worker
	routeTS *httptest.Server
}

// newTraceStack wires router → shard → 2 workers over httptest. The
// model names a real benchmark ("mcf") and a trace length, so the
// workers' simulator accepts it; routerSample is the edge's head-sampling rate
// (everything downstream keeps its default sampler and must obey the
// propagated bit instead).
func newTraceStack(t *testing.T, routerSample float64) *traceStack {
	t.Helper()
	dir := t.TempDir()
	m := buildTestModel(t, "mcf")
	m.TraceLen = 2000
	saveModel(t, m, filepath.Join(dir, "mcf.json"))

	st := &traceStack{}
	urls := make([]string, 2)
	for i := range urls {
		w := cluster.NewWorker(cluster.WorkerOptions{})
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		st.workers = append(st.workers, w)
		urls[i] = ts.URL
	}
	pool, err := cluster.NewPool(urls, cluster.PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.serve = New(Options{ModelDir: dir, SimPool: pool})
	if _, err := st.serve.Registry().LoadDir(""); err != nil {
		t.Fatal(err)
	}
	shardTS := httptest.NewServer(st.serve.Handler())
	t.Cleanup(shardTS.Close)

	st.router, err = cluster.NewRouter(cluster.RouterOptions{
		Shards:       []string{shardTS.URL},
		SyncInterval: -1,
		TraceSample:  routerSample,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.routeTS = httptest.NewServer(st.router.Handler())
	t.Cleanup(st.routeTS.Close)
	return st
}

const searchBody = `{"model":"mcf","verify":"sim"}`

// TestTraceE2EMergedAcrossRoles drives a simulator-verified search
// through the full stack and asserts the router holds ONE merged trace
// containing spans from all three roles, with every remote span
// correctly parented into a single tree.
func TestTraceE2EMergedAcrossRoles(t *testing.T) {
	obs.Reset()
	st := newTraceStack(t, 1)

	resp, body := postJSON(t, st.routeTS.URL+"/v1/search", searchBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search through router = %d: %s", resp.StatusCode, body)
	}

	var sum obs.TraceSummary
	for _, s := range st.router.Traces().Snapshot("/v1/search") {
		if s.Route == "/v1/search" {
			sum = s
			break
		}
	}
	if sum.ID == "" {
		t.Fatal("router /tracez holds no /v1/search trace")
	}
	tr, _, ok := st.router.Traces().Get(sum.ID)
	if !ok {
		t.Fatalf("trace %s not retrievable by id", sum.ID)
	}
	spans := tr.Spans()

	// All three roles appear in the one merged trace.
	want := []string{"router.request", "router.forward", "serve.search", "cluster.pool_attempt", "cluster.worker_eval"}
	names := map[string]int{}
	for _, s := range spans {
		names[s.Name]++
	}
	for _, n := range want {
		if names[n] == 0 {
			t.Errorf("merged trace is missing a %q span (have %v)", n, names)
		}
	}

	// The span forest is a single rooted tree: exactly one root, every
	// other parent resolves, and the remote lanes hang off the right
	// local spans.
	byID := map[int64]obs.SpanInfo{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == 0 {
			roots++
			if s.Name != "router.request" {
				t.Errorf("root span is %q, want router.request", s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q has dangling parent %d", s.Name, s.Parent)
			continue
		}
		switch s.Name {
		case "router.forward":
			if p.Name != "router.request" {
				t.Errorf("router.forward parented under %q", p.Name)
			}
		case "serve.search":
			if p.Name != "router.forward" {
				t.Errorf("serve.search parented under %q", p.Name)
			}
		case "cluster.pool_attempt":
			if p.Name != "serve.search" {
				t.Errorf("cluster.pool_attempt parented under %q", p.Name)
			}
		case "cluster.worker_eval":
			if p.Name != "cluster.pool_attempt" {
				t.Errorf("cluster.worker_eval parented under %q", p.Name)
			}
		}
	}
	if roots != 1 {
		t.Errorf("merged trace has %d roots, want 1", roots)
	}

	// The merged trace exports as one Chrome timeline through the
	// router's own /tracez.
	cresp, err := http.Get(st.routeTS.URL + "/tracez?id=" + sum.ID + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := cresp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export = %d", cresp.StatusCode)
	}
	for _, n := range want {
		if !strings.Contains(sb.String(), n) {
			t.Errorf("chrome export is missing span %q", n)
		}
	}
}

// TestTraceE2ELongForestIsCut drives traced, routed, simulator-verified
// searches whose long shortlists give the shard a span forest past
// obs.MaxSpanTrailerBytes. The shard cuts the forest to fit its
// trailer, so each search answers 200, the router keeps the shard
// healthy, and the router's trace ends the shard's spans with the count
// of those dropped.
func TestTraceE2ELongForestIsCut(t *testing.T) {
	obs.Reset()
	st := newTraceStack(t, 1)
	for _, shortlist := range []int{16, 64} {
		resp, body := postJSON(t, st.routeTS.URL+"/v1/search",
			fmt.Sprintf(`{"model":"mcf","verify":"sim","shortlist":%d}`, shortlist))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced search with shortlist %d through the router = %d: %s", shortlist, resp.StatusCode, body)
		}
		id := resp.Header.Get("X-Request-Id")
		tr, _, ok := st.router.Traces().Get(id)
		if !ok {
			t.Fatalf("shortlist %d: router holds no trace %q", shortlist, id)
		}
		dropped := 0
		for _, s := range tr.Spans() {
			if s.Name == obs.DroppedSpans && len(s.Args) == 2 && s.Args[0] == "dropped" {
				dropped, _ = strconv.Atoi(s.Args[1])
			}
		}
		if dropped <= 0 {
			t.Errorf("shortlist %d: the router's trace shows no %s span with a drop count", shortlist, obs.DroppedSpans)
		}
	}
	resp, body := getBody(t, st.routeTS.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router /healthz = %d: %s", resp.StatusCode, body)
	}
	var health struct {
		Shards []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if len(health.Shards) != 1 || !health.Shards[0].Healthy {
		t.Errorf("router reports shards %+v, want the one shard healthy", health.Shards)
	}
}

// TestTraceE2ESamplingSuppression turns head sampling off at the edge
// and asserts the bit suppresses trace allocation on every downstream
// role — and that the response body is bit-identical to the traced one.
func TestTraceE2ESamplingSuppression(t *testing.T) {
	obs.Reset()
	on := newTraceStack(t, 1)
	respOn, bodyOn := postJSON(t, on.routeTS.URL+"/v1/search", searchBody)
	if respOn.StatusCode != http.StatusOK {
		t.Fatalf("traced search = %d: %s", respOn.StatusCode, bodyOn)
	}

	obs.Reset()
	off := newTraceStack(t, -1)
	respOff, bodyOff := postJSON(t, off.routeTS.URL+"/v1/search", searchBody)
	if respOff.StatusCode != http.StatusOK {
		t.Fatalf("untraced search = %d: %s", respOff.StatusCode, bodyOff)
	}

	if string(bodyOn) != string(bodyOff) {
		t.Errorf("response bodies differ with tracing on vs off:\non:  %s\noff: %s", bodyOn, bodyOff)
	}
	if got := len(off.router.Traces().Snapshot("/v1/search")); got != 0 {
		t.Errorf("router stored %d /v1/search traces with sampling off", got)
	}
	if got := len(off.serve.Traces().Snapshot("/v1/search")); got != 0 {
		t.Errorf("shard stored %d /v1/search traces despite the unsampled bit", got)
	}
	for i, w := range off.workers {
		if got := len(w.Traces().Snapshot("/v1/eval")); got != 0 {
			t.Errorf("worker %d stored %d /v1/eval traces despite the unsampled bit", i, got)
		}
	}
}
