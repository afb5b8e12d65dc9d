package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
)

// TestHTMLViews fetches all five HTML views — the /statusz of each role,
// and a role's /tracez list and trace — from one router fronting a
// predserve shard, and from a simworker; the trace view
// twice, on the shard and on the router, whose trace of a routed
// predict holds the shard's grafted spans. Each must be a complete page
// with its sections, and a model name carrying markup must appear only
// escaped.
func TestHTMLViews(t *testing.T) {
	obs.Reset()
	const model = "a<b>&c"
	s := New(Options{})
	if err := s.Registry().Add(model, buildTestModel(t, model), ""); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(s.Handler())
	defer shard.Close()
	worker := httptest.NewServer(cluster.NewWorker(cluster.WorkerOptions{}).Handler())
	defer worker.Close()
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: []string{shard.URL}, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	rt.SyncOnce(context.Background())

	// views-2 goes through the router, then views-1 to the shard directly,
	// so views-1 is the shard's latest trace.
	for _, p := range []struct{ id, base string }{{"views-2", router.URL}, {"views-1", shard.URL}} {
		req, _ := http.NewRequest(http.MethodPost, p.base+"/v1/predict", strings.NewReader(
			`{"model":"a<b>&c","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`))
		req.Header.Set(role.RequestIDHeader, p.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s = %d", p.id, resp.StatusCode)
		}
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
			[]string{"SLOs", "Shards", "Model placement"}, []string{escapedModel, "router-availability"}},
		{"simworker /statusz", worker.URL + "/statusz", []string{"Loaded evaluators"}, nil},
		{"/tracez list", shard.URL + "/tracez", []string{"Traces"}, []string{`href="/tracez?id=views-1&amp;format=chrome"`}},
		{"/tracez trace", shard.URL + "/tracez?id=views-1", []string{"Spans"}, []string{"serve.predict"}},
		{"router /tracez trace", router.URL + "/tracez?id=views-2", []string{"Spans"}, []string{"router.forward", "serve.predict"}},
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
		if strings.Contains(body, model) {
			t.Errorf("%s carries %q unescaped", v.name, model)
		}
	}
}
