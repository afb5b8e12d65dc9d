package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
	"predperf/internal/serve"
)

// searchTracez decodes the router's /tracez list view for query q.
func searchTracez(t *testing.T, base, q string) []obs.TraceSummary {
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
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

// traceSpans decodes the spans of the router's single-trace JSON view.
type traceSpans struct {
	Spans []struct {
		Name  string `json:"name"`
		Depth int    `json:"depth"`
	} `json:"spans"`
}

func getTrace(t *testing.T, base, id string) (int, traceSpans) {
	t.Helper()
	resp, err := http.Get(base + "/tracez?id=" + id + "&format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr traceSpans
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, tr
}

// TestRouterTracezSearchAndDetail: a routed predict is retained on the
// router with the shard's spans grafted under its hop, so the router's
// own /tracez finds it by ID, filters it by route in compact JSON,
// serves it as one rooted tree holding the shard's serve.predict span,
// and exports it to chrome://tracing.
func TestRouterTracezSearchAndDetail(t *testing.T) {
	f := newShardFarm(t, 2, true)
	const id = "routed-trace-0001"

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

	if rows := searchTracez(t, f.routeTS.URL, id); len(rows) != 1 || rows[0].ID != id {
		t.Fatalf("search for one trace ID returned %+v, want one row", rows)
	}

	// ?route= exact-filters, and the JSON is compact (no indentation) so
	// scrape tooling can grep it.
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
		Traces []obs.TraceSummary `json:"traces"`
	}
	if err := json.Unmarshal(raw, &filtered); err != nil {
		t.Fatal(err)
	}
	for _, row := range filtered.Traces {
		if row.Route != "/v1/predict" {
			t.Fatalf("route filter leaked %q row: %+v", row.Route, row)
		}
	}

	// The detail view is one tree: a single root, every other span
	// parented inside it, and the shard's serve.predict span present (it
	// rode back on the trailer and was grafted under router.forward).
	status, tr := getTrace(t, f.routeTS.URL, id)
	if status != http.StatusOK {
		t.Fatalf("trace detail = %d", status)
	}
	roots, predict := 0, false
	for _, s := range tr.Spans {
		if s.Depth == 0 {
			roots++
		}
		predict = predict || s.Name == "serve.predict"
	}
	if roots != 1 || !predict {
		t.Fatalf("trace has %d roots and serve.predict %v, want one rooted tree holding it: %+v", roots, predict, tr.Spans)
	}

	cresp, err := http.Get(f.routeTS.URL + "/tracez?id=" + id + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || !strings.Contains(cresp.Header.Get("Content-Disposition"), "attachment") {
		t.Fatalf("chrome export = %d disposition %q", cresp.StatusCode, cresp.Header.Get("Content-Disposition"))
	}
}

// TestRoutedBodiesIdenticalAcrossSamplingRates: sampling (off, always,
// partial) changes only which traces are retained — response bodies
// are byte-identical across configurations, and repeated requests
// through one router agree with themselves.
func TestRoutedBodiesIdenticalAcrossSamplingRates(t *testing.T) {
	f := newShardFarm(t, 2, true) // default router: TraceSample 1
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

// TestRouterOwnTrafficIsUntraced: the router's own calls — the
// /v1/models listing it asks of every shard, its only traffic of its
// own — carry an unsampled traceparent, so the shard records none of
// them, even when the client's listing request is traced. A routed
// predict is still traced on the shard.
func TestRouterOwnTrafficIsUntraced(t *testing.T) {
	dir := t.TempDir()
	saveSyntheticModel(t, dir, "synthetic", 40)
	s := serve.New(serve.Options{ModelDir: dir})
	if _, err := s.Registry().LoadDir(""); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(s.Handler())
	defer shard.Close()
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models", nil)
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.SpanContext{TraceID: "listing-1", ParentID: 1, Sampled: true}))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed /v1/models = %d", resp.StatusCode)
		}
	}
	if got := s.Traces().Snapshot(""); len(got) != 0 {
		t.Fatalf("the shard traced the router's own traffic: %+v", got)
	}

	const id = "own-traffic-1"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(predictBody))
	req.Header.Set(role.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed predict = %d", resp.StatusCode)
	}
	if _, _, ok := s.Traces().Get(id); !ok {
		t.Fatal("the shard did not store the routed predict's trace")
	}
}
