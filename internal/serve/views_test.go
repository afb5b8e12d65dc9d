package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
)

// TestHTMLViews fetches all seven HTML views — the /statusz of each
// role, the router's /fleetz, a role's /tracez list and trace, and the
// router's federated /tracez list — from one router fronting a predserve
// shard, a simworker and a stand-in role. Each must be a complete page
// with its sections, and a model name and a remote trace ID carrying
// markup must appear only escaped.
func TestHTMLViews(t *testing.T) {
	obs.Reset()
	const model, remoteID = "a<b>&c", "remote<script>1"
	s := New(Options{})
	if err := s.Registry().Add(model, buildTestModel(t, model), ""); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(s.Handler())
	defer shard.Close()
	worker := httptest.NewServer(cluster.NewWorker(cluster.WorkerOptions{}).Handler())
	defer worker.Close()
	// The stand-in role reports a trace whose ID no real role would
	// accept: the router shows what remote roles send.
	remote := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/tracez" {
			fmt.Fprintf(w, `{"traces":[{"id":%q,"kind":"request","route":"/v1/predict","status":200,"class":"kept","start":"2026-01-02T03:04:05Z","dur_ms":1.5,"spans":2}]}`, remoteID)
			return
		}
		fmt.Fprint(w, `{"format":3,"counters":{}}`)
	}))
	defer remote.Close()
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:              []string{shard.URL},
		Workers:             []string{worker.URL, remote.URL},
		SyncInterval:        -1,
		FleetScrapeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	rt.SyncOnce(context.Background())

	req, _ := http.NewRequest(http.MethodPost, shard.URL+"/v1/predict", strings.NewReader(
		`{"model":"a<b>&c","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`))
	req.Header.Set(role.RequestIDHeader, "views-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict = %d", resp.StatusCode)
	}

	escapedModel := "a&lt;b&gt;&amp;c"
	for _, v := range []struct {
		name, url string
		titles    []string
		escaped   []string // escaped forms the page must carry
	}{
		{"predserve /statusz", shard.URL + "/statusz",
			[]string{"SLOs", "Models", "Routes", "Alerts"}, []string{escapedModel, `href="/tracez?id=views-1"`}},
		{"predrouter /statusz", router.URL + "/statusz",
			[]string{"Shards", "Model placement"}, []string{escapedModel}},
		{"simworker /statusz", worker.URL + "/statusz", []string{"Loaded evaluators"}, nil},
		{"/fleetz", router.URL + "/fleetz",
			[]string{"Fleet SLOs", "Traffic", "Roles", "Per-role drill-down", "Merged totals"}, nil},
		{"/tracez list", shard.URL + "/tracez", []string{"Traces"}, []string{`href="/tracez?id=views-1&amp;format=chrome"`}},
		{"/tracez trace", shard.URL + "/tracez?id=views-1", []string{"Spans"}, []string{"serve.predict"}},
		{"federated /tracez", router.URL + "/tracez", []string{"Traces"},
			[]string{"remote&lt;script&gt;1", `href="/tracez?id=remote%3Cscript%3E1"`, "views-1", "roles"}},
	} {
		resp, body := getBody(t, v.url)
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
			t.Errorf("%s = %d %s", v.name, resp.StatusCode, resp.Header.Get("Content-Type"))
			continue
		}
		// The page writer ignores execute errors, so a page cut short by
		// one would still answer 200.
		if !strings.HasSuffix(strings.TrimSpace(body), "</html>") {
			t.Errorf("%s is cut short:\n%s", v.name, body)
		}
		for _, title := range v.titles {
			if !strings.Contains(body, "<h2>"+title) {
				t.Errorf("%s lacks section %q", v.name, title)
			}
		}
		for _, want := range v.escaped {
			if !strings.Contains(body, want) {
				t.Errorf("%s lacks %q", v.name, want)
			}
		}
		for _, raw := range []string{model, remoteID} {
			if strings.Contains(body, raw) {
				t.Errorf("%s carries %q unescaped", v.name, raw)
			}
		}
	}
}
