package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
)

// fakeRole serves a fixed obs.Report on /metricz and an empty trace
// list on /tracez, standing in for a remote shard or worker process.
func fakeRole(t *testing.T, rep *obs.Report) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"traces":[]}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// fleetzJSON is the decoded subset of /fleetz?format=json the tests
// assert on.
type fleetzJSON struct {
	Scrapes    int64          `json:"scrapes"`
	SampleRate float64        `json:"trace_sample_rate"`
	SLOs       []obs.SLOState `json:"slos"`
	Roles      []struct {
		URL        string  `json:"url"`
		Role       string  `json:"role"`
		Healthy    bool    `json:"healthy"`
		Requests   int64   `json:"requests"`
		Errors     int64   `json:"errors"`
		SampleRate float64 `json:"trace_sample_rate"`
	} `json:"roles"`
	Merged *obs.Report `json:"merged"`
}

func getFleetz(t *testing.T, base, query string) fleetzJSON {
	t.Helper()
	resp, err := http.Get(base + "/fleetz?format=json" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleetz = %d", resp.StatusCode)
	}
	var v fleetzJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFleetzAggregatesRoles: the router scrapes two fake shards and a
// fake worker and /fleetz serves the exact merged aggregate — custom
// fleettest.* names are used for the exactness assertions because the
// test binary's own registry (which joins the merge as "the router")
// must not contribute to them.
func TestFleetzAggregatesRoles(t *testing.T) {
	bounds := []float64{0.25, 0.5}
	shard1 := fakeRole(t, &obs.Report{Format: 3,
		Counters: map[string]int64{"fleettest.requests": 100, "serve.requests_total": 100},
		Gauges:   map[string]float64{"obs.trace_sample_rate": 0.25},
		Histograms: map[string]obs.HistStats{"fleettest.seconds": {
			Count: 4, Sum: 1.0, P50: 0.25, Bounds: bounds, Buckets: []int64{3, 1, 0},
		}},
	})
	shard2 := fakeRole(t, &obs.Report{Format: 3,
		Counters: map[string]int64{"fleettest.requests": 50, "serve.requests_total": 50},
		Gauges:   map[string]float64{"obs.trace_sample_rate": 1},
		Histograms: map[string]obs.HistStats{"fleettest.seconds": {
			Count: 2, Sum: 0.9, P50: 0.5, Bounds: bounds, Buckets: []int64{1, 0, 1},
		}},
	})
	worker := fakeRole(t, &obs.Report{Format: 3,
		Counters: map[string]int64{"cluster.worker_eval_requests": 7, "cluster.worker_errors": 1},
	})

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:              []string{shard1.URL, shard2.URL},
		Workers:             []string{worker.URL},
		SyncInterval:        -1,
		FleetScrapeInterval: -1, // the first /fleetz hit scrapes on demand
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	v := getFleetz(t, ts.URL, "")
	if v.Scrapes != 1 {
		t.Fatalf("scrapes = %d, want 1 (on-demand first cycle)", v.Scrapes)
	}
	// Counter merge is an exact sum across roles.
	if got := v.Merged.Counters["fleettest.requests"]; got != 150 {
		t.Fatalf("merged fleettest.requests = %d, want 150", got)
	}
	// Histogram merge is exact bucket-wise: bounds preserved, counts
	// summed per bucket, never quantile averaging.
	hs, ok := v.Merged.Histograms["fleettest.seconds"]
	if !ok {
		t.Fatal("merged report lost fleettest.seconds")
	}
	if hs.Count != 6 || !reflect.DeepEqual(hs.Bounds, bounds) || !reflect.DeepEqual(hs.Buckets, []int64{4, 1, 1}) {
		t.Fatalf("bucket-wise merge wrong: count=%d bounds=%v buckets=%v", hs.Count, hs.Bounds, hs.Buckets)
	}
	// Merged quantiles re-derived from the summed buckets, exactly as a
	// single histogram fed the union would report: rank 3 of 6 lands 3/4
	// through the (0, 0.25] bucket → 0.1875 by linear interpolation.
	if hs.P50 != 0.1875 {
		t.Fatalf("merged p50 = %v, want 0.1875 (re-derived from summed buckets)", hs.P50)
	}
	// Both fleet SLOs are evaluated over the merged windows.
	names := map[string]bool{}
	for _, st := range v.SLOs {
		names[st.Name] = true
	}
	if !names["fleet-latency"] || !names["fleet-availability"] {
		t.Fatalf("fleet SLOs missing from /fleetz: %v", v.SLOs)
	}
	// Per-role drill-down picks each role's own cumulative numbers.
	if len(v.Roles) != 3 {
		t.Fatalf("roles = %d, want 3", len(v.Roles))
	}
	byURL := map[string]int{}
	for i, ro := range v.Roles {
		byURL[ro.URL] = i
		if !ro.Healthy {
			t.Fatalf("role %s unhealthy after a clean scrape", ro.URL)
		}
	}
	if s1 := v.Roles[byURL[shard1.URL]]; s1.Role != "shard" || s1.Requests != 100 || s1.SampleRate != 0.25 {
		t.Fatalf("shard1 drill-down wrong: %+v", s1)
	}
	if wk := v.Roles[byURL[worker.URL]]; wk.Role != "worker" || wk.Requests != 7 || wk.Errors != 1 {
		t.Fatalf("worker drill-down wrong: %+v", wk)
	}

	// HTML view renders the same data.
	resp, err := http.Get(ts.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	page := buf.String()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("/fleetz html = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"fleet status", "ALL ROLES HEALTHY", shard1.URL, worker.URL, "fleet-availability"} {
		if !strings.Contains(page, want) {
			t.Fatalf("/fleetz page missing %q", want)
		}
	}
}

// TestFleetzMarksDarkTargetUnhealthy: a target that stops answering is
// flagged after fleetFailAfter consecutive failures while the healthy
// roles keep aggregating.
func TestFleetzMarksDarkTargetUnhealthy(t *testing.T) {
	good := fakeRole(t, &obs.Report{Format: 3,
		Counters: map[string]int64{"fleettest.dark_requests": 11}})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer dead.Close()

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:              []string{good.URL},
		Workers:             []string{dead.URL},
		SyncInterval:        -1,
		FleetScrapeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	var v fleetzJSON
	for i := 0; i < 3; i++ { // three scrape cycles: first on demand, then refresh
		v = getFleetz(t, ts.URL, "&refresh=1")
	}
	var sawDark bool
	for _, ro := range v.Roles {
		switch ro.URL {
		case dead.URL:
			sawDark = true
			if ro.Healthy {
				t.Fatalf("dark target still healthy after 3 failed scrapes: %+v", ro)
			}
		case good.URL:
			if !ro.Healthy {
				t.Fatalf("healthy target marked unhealthy: %+v", ro)
			}
		}
	}
	if !sawDark {
		t.Fatal("dark target missing from the rollup")
	}
	if got := v.Merged.Counters["fleettest.dark_requests"]; got != 11 {
		t.Fatalf("healthy role's counters lost: %d", got)
	}
}

// tracezRows decodes the router's federated /tracez list view.
type tracezRow struct {
	obs.TraceSummary
	Roles []string `json:"roles"`
}

func searchTracez(t *testing.T, base, q string) []tracezRow {
	t.Helper()
	resp, err := http.Get(base + "/tracez?format=json&q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez?q=%s = %d", q, resp.StatusCode)
	}
	var out struct {
		Traces []tracezRow `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

// fedTrace decodes the router's merged single-trace view.
type fedTrace struct {
	ID    string `json:"id"`
	Spans []struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent,omitempty"`
		Name   string `json:"name"`
		Depth  int    `json:"depth"`
	} `json:"spans"`
}

func getFedTrace(t *testing.T, base, id string) (int, fedTrace) {
	t.Helper()
	resp, err := http.Get(base + "/tracez?id=" + id + "&format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ft fedTrace
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ft); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ft
}

// TestFederatedTraceSearchAndJoin: a routed predict leaves partial
// traces on the router and the owning shard under one ID; the router's
// /tracez search view joins them into a single row, and the detail view
// serves one merged forest with every span parented — without
// double-grafting the shard subtree the router already holds.
func TestFederatedTraceSearchAndJoin(t *testing.T) {
	f := newShardFarm(t, true)
	const id = "fed-join-0001"

	req, _ := http.NewRequest(http.MethodPost, f.routeTS.URL+"/v1/predict", strings.NewReader(predictBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(role.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed predict = %d", resp.StatusCode)
	}

	// The list view groups the per-role partial retentions into one row.
	rows := searchTracez(t, f.routeTS.URL, id)
	if len(rows) != 1 {
		t.Fatalf("federated search returned %d rows for one trace ID, want 1: %+v", len(rows), rows)
	}
	var hasRouter, hasShard bool
	for _, role := range rows[0].Roles {
		hasRouter = hasRouter || role == "router"
		hasShard = hasShard || strings.HasPrefix(role, "shard ")
	}
	if !hasRouter || !hasShard {
		t.Fatalf("joined row roles = %v, want router and a shard", rows[0].Roles)
	}

	// The single-role list contract carries over: ?route= exact-filters
	// the federated view, and the JSON stays compact (no indentation) so
	// scrape tooling written against a role's own /tracez keeps parsing.
	lresp, err := http.Get(f.routeTS.URL + "/tracez?format=json&route=/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"id":"`+id+`"`) {
		t.Fatalf("route-filtered list missing compact %q row: %s", id, raw)
	}
	var filtered struct {
		Traces []tracezRow `json:"traces"`
	}
	if err := json.Unmarshal(raw, &filtered); err != nil {
		t.Fatal(err)
	}
	for _, row := range filtered.Traces {
		if row.Route != "/v1/predict" {
			t.Fatalf("route filter leaked %q row: %+v", row.Route, row)
		}
	}

	// The detail view serves one merged forest: a single root, every
	// other span parented inside the forest, and the shard's handler
	// spans present (they rode back on the trailer graft).
	status, ft := getFedTrace(t, f.routeTS.URL, id)
	if status != http.StatusOK {
		t.Fatalf("federated trace detail = %d", status)
	}
	roots, shardSpans := 0, 0
	for _, s := range ft.Spans {
		if s.Depth == 0 {
			roots++
		}
		if strings.HasPrefix(s.Name, "serve.") {
			shardSpans++
		}
	}
	if roots != 1 {
		t.Fatalf("merged forest has %d roots, want 1 correctly-parented tree: %+v", roots, ft.Spans)
	}
	if shardSpans == 0 {
		t.Fatalf("merged forest has no shard-side spans: %+v", ft.Spans)
	}

	// Coverage dedup: the router's local trace already contains the
	// grafted shard forest, so re-assembly must not duplicate it — the
	// merged span count equals the router's own retained forest.
	var local obs.WireExport
	resp, err = http.Get(f.routeTS.URL + "/tracez?id=" + id + "&format=wire")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&local); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(local.Traces) != 1 {
		t.Fatalf("router wire export has %d traces, want 1", len(local.Traces))
	}
	if got, want := len(ft.Spans), len(local.Traces[0].Spans); got != want {
		t.Fatalf("merged forest has %d spans, local router forest %d — shard subtree duplicated or dropped", got, want)
	}

	// The merged trace exports to chrome://tracing through the router.
	cresp, err := http.Get(f.routeTS.URL + "/tracez?id=" + id + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || !strings.Contains(cresp.Header.Get("Content-Disposition"), "attachment") {
		t.Fatalf("chrome export = %d disposition %q", cresp.StatusCode, cresp.Header.Get("Content-Disposition"))
	}
}

// TestFederatedTraceOnlyOnShard: a trace tail-retained only on a shard
// (the router never saw the request) is still findable and exportable
// through the router's federated /tracez.
func TestFederatedTraceOnlyOnShard(t *testing.T) {
	f := newShardFarm(t, true)
	const id = "fed-shard-only-1"

	req, _ := http.NewRequest(http.MethodPost, f.shards[0].URL+"/v1/predict", strings.NewReader(predictBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.SpanContext{
		TraceID: id, ParentID: 7, Sampled: true,
	}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct shard predict = %d", resp.StatusCode)
	}

	rows := searchTracez(t, f.routeTS.URL, id)
	if len(rows) != 1 || len(rows[0].Roles) != 1 || !strings.HasPrefix(rows[0].Roles[0], "shard ") {
		t.Fatalf("shard-only trace rows = %+v, want one row held by one shard", rows)
	}
	status, ft := getFedTrace(t, f.routeTS.URL, id)
	if status != http.StatusOK || len(ft.Spans) == 0 {
		t.Fatalf("federated detail for a shard-only trace = %d with %d spans", status, len(ft.Spans))
	}
	cresp, err := http.Get(f.routeTS.URL + "/tracez?id=" + id + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("chrome export of a shard-only trace = %d", cresp.StatusCode)
	}

	// A trace retained nowhere is a clean 404.
	if status, _ := getFedTrace(t, f.routeTS.URL, "no-such-trace-id"); status != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", status)
	}
}

// TestRoutedBodiesIdenticalAcrossSamplingRates: sampling (off, always,
// partial) changes only which traces are retained — response bodies
// are byte-identical across configurations, and repeated requests
// through one router agree with themselves.
func TestRoutedBodiesIdenticalAcrossSamplingRates(t *testing.T) {
	f := newShardFarm(t, true) // default router: TraceSample 1
	primary, _ := f.router.Ring().Lookup("synthetic")
	postJSON(t, primary+"/v1/predict", predictBody) // warm the shard cache
	_, always := postJSON(t, f.routeTS.URL+"/v1/predict", predictBody)

	for _, tc := range []struct {
		name string
		opt  cluster.RouterOptions
	}{
		{"off", cluster.RouterOptions{TraceSample: -1}},
		{"partial", cluster.RouterOptions{TraceSample: 0.25}},
	} {
		tc.opt.Shards = []string{f.shards[0].URL, f.shards[1].URL}
		tc.opt.SyncInterval = -1
		tc.opt.FleetScrapeInterval = -1
		rt, err := cluster.NewRouter(tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt.Handler())
		_, body1 := postJSON(t, ts.URL+"/v1/predict", predictBody)
		_, body2 := postJSON(t, ts.URL+"/v1/predict", predictBody)
		ts.Close()
		if !bytes.Equal(body1, always) {
			t.Fatalf("%s-sampling body differs from always-sampling body:\n%s\nvs\n%s", tc.name, body1, always)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("%s-sampling body not stable across repeats", tc.name)
		}
	}
}
