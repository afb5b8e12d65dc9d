package cluster_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/rbf"
	"predperf/internal/role"
	"predperf/internal/serve"
)

// syntheticCPI mirrors internal/serve's test ground truth: smooth,
// non-linear, and cheap enough that a model builds in milliseconds.
func syntheticCPI(c design.Config) float64 {
	l2 := float64(c.L2SizeKB)
	return 0.6 +
		1.5*math.Exp(-l2/1500)*(float64(c.L2Lat)/20) +
		0.5*float64(c.PipeDepth)/24 +
		12/float64(c.ROBSize) +
		0.2*float64(c.DL1Lat)/4*(64/float64(c.DL1SizeKB))*0.2
}

// saveSyntheticModel saves a model of syntheticCPI fitted on n points
// as dir/name.json.
func saveSyntheticModel(t *testing.T, dir, name string, n int) {
	t.Helper()
	m, err := core.BuildRBFModel(core.FuncEvaluator(syntheticCPI), n, core.Options{
		LHSCandidates: 16,
		RBF:           rbf.Options{PMinGrid: []int{1, 2}, AlphaGrid: []float64{5, 9}},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Name = name
	f, err := os.Create(filepath.Join(dir, name+".json"))
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

// shardFarm is predserve shards sharing one model directory — the
// deployment shape a routed load assumes, since it sends the same path
// to every shard — plus a router over them.
type shardFarm struct {
	dir     string
	shards  []*httptest.Server
	router  *cluster.Router
	routeTS *httptest.Server
}

// newShardFarm starts n shards over a directory holding synthetic.json;
// with loadAll, each shard loads the directory.
func newShardFarm(t *testing.T, n int, loadAll bool) *shardFarm {
	t.Helper()
	f := &shardFarm{dir: t.TempDir()}
	saveSyntheticModel(t, f.dir, "synthetic", 40)
	for i := 0; i < n; i++ {
		s := serve.New(serve.Options{ModelDir: f.dir})
		if loadAll {
			if _, err := s.Registry().LoadDir(""); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		f.shards = append(f.shards, ts)
	}
	urls := make([]string, n)
	for i, s := range f.shards {
		urls[i] = s.URL
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.routeTS = httptest.NewServer(rt.Handler())
	t.Cleanup(f.routeTS.Close)
	return f
}

// shardFor returns the httptest shard serving the given base URL.
func (f *shardFarm) shardFor(url string) *httptest.Server {
	for _, s := range f.shards {
		if s.URL == url {
			return s
		}
	}
	return nil
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
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

const predictBody = `{"model":"synthetic","configs":[
	{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2},
	{"depth":16,"rob":160,"iq":64,"lsq":32,"l2kb":1024,"l2lat":12,"il1kb":32,"dl1kb":64,"dl1lat":3}]}`

func TestRouterPredictBitIdenticalToDirect(t *testing.T) {
	f := newShardFarm(t, 2, true)
	primary, _ := f.router.Ring().Lookup("synthetic")

	// Warm the shard's prediction cache so the `cached` flags agree
	// between the direct and routed answers.
	postJSON(t, primary+"/v1/predict", predictBody)
	direct, directBody := postJSON(t, primary+"/v1/predict", predictBody)
	if direct.StatusCode != http.StatusOK {
		t.Fatalf("direct predict failed: %d %s", direct.StatusCode, directBody)
	}
	routed, routedBody := postJSON(t, f.routeTS.URL+"/v1/predict", predictBody)
	if routed.StatusCode != http.StatusOK {
		t.Fatalf("routed predict failed: %d %s", routed.StatusCode, routedBody)
	}
	if !bytes.Equal(directBody, routedBody) {
		t.Fatalf("routed answer differs from the owning shard:\ndirect: %s\nrouted: %s", directBody, routedBody)
	}
}

func TestRouterValidation(t *testing.T) {
	f := newShardFarm(t, 2, true)
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"no model", "/v1/predict", `{"configs":[]}`, 400},
		{"bad json", "/v1/predict", `{`, 400},
		{"no model search", "/v1/search", `{}`, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, f.routeTS.URL+c.path, c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.status, body)
			}
		})
	}
	// 4xx from the shard is authoritative: no failover, relayed verbatim.
	resp, body := postJSON(t, f.routeTS.URL+"/v1/predict",
		`{"model":"nosuch","configs":[{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model through router = %d, want 404 (%s)", resp.StatusCode, body)
	}
	// Wrong method.
	getResp, err := http.Get(f.routeTS.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict through router = %d, want 405", getResp.StatusCode)
	}
}

// TestRouterTracedLongModelName: a shard's span forest rides back on a
// trailer, and Go's client refuses a trailer past its 4 KiB read
// buffer, so no span may carry a client string of unbounded length. A
// traced predict for a 4 KB unknown model name is the shard's 404, and
// both shards stay healthy.
func TestRouterTracedLongModelName(t *testing.T) {
	f := newShardFarm(t, 2, true)
	routerModels(t, f.routeTS.URL) // marks both shards healthy
	req, _ := http.NewRequest(http.MethodPost, f.routeTS.URL+"/v1/predict", strings.NewReader(
		`{"model":"`+strings.Repeat("m", 4096)+`","configs":[{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`))
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.SpanContext{TraceID: "long-model-1", ParentID: 1, Sampled: true}))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || errCode(t, buf.Bytes()) != "unknown_model" {
		t.Fatalf("traced predict for a 4 KB model name = %d %s, want 404 unknown_model", resp.StatusCode, buf.Bytes())
	}
	resp, err = http.Get(f.routeTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Shards []struct {
			URL     string `json:"url"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health.Shards) != 2 {
		t.Fatalf("router reports %d shards, want 2", len(health.Shards))
	}
	for _, s := range health.Shards {
		if !s.Healthy {
			t.Errorf("shard %s marked unhealthy", s.URL)
		}
	}
}

func TestRouterFailsOverWhenPrimaryDies(t *testing.T) {
	f := newShardFarm(t, 2, true)
	primary, secondary := f.router.Ring().Lookup("synthetic")
	if primary == secondary {
		t.Fatal("two shards but no distinct secondary")
	}

	// Capture the survivor's answer (twice: the first call warms its
	// prediction cache, so the `cached` flags match the routed answer),
	// then kill the primary.
	postJSON(t, secondary+"/v1/predict", predictBody)
	_, wantBody := postJSON(t, secondary+"/v1/predict", predictBody)
	ps := f.shardFor(primary)
	ps.CloseClientConnections()
	ps.Close()

	resp, body := postJSON(t, f.routeTS.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with dead primary = %d %s, want 200 via failover", resp.StatusCode, body)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("failover answer differs from the secondary shard's own:\nwant: %s\ngot:  %s", wantBody, body)
	}

	// The router keeps the failed-over request past its reservoir, with
	// both hops: the primary's that got no answer and the secondary's.
	id := resp.Header.Get(role.RequestIDHeader)
	if rows := f.router.Traces().Search(id); len(rows) != 1 || rows[0].Class != "kept" {
		t.Fatalf("router lists the failed-over request %q as %+v, want one kept row", id, rows)
	}
	tr, _, _ := f.router.Traces().Get(id)
	hops, noAnswer := 0, 0
	for _, sp := range tr.Spans() {
		if sp.Name != "router.forward" {
			continue
		}
		hops++
		if strings.Contains(strings.Join(sp.Args, " "), "outcome no_answer") {
			noAnswer++
		}
	}
	if hops != 2 || noAnswer != 1 {
		t.Fatalf("failed-over trace has %d router.forward spans, %d without an answer; want 2 and 1", hops, noAnswer)
	}

	// Both shards down: a structured 503 with a Retry-After hint.
	ss := f.shardFor(secondary)
	ss.CloseClientConnections()
	ss.Close()
	resp, body = postJSON(t, f.routeTS.URL+"/v1/predict", predictBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with all shards dead = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
	if code := errCode(t, body); code != "no_shard" {
		t.Fatalf("error code %q, want no_shard", code)
	}
}

// TestRouterRefusesOversizeShardAnswer: a shard answer past
// role.MaxAnswerBytes is a failed attempt, not a body to relay cut
// short. With no other shard to fail over to, the router answers 503
// no_shard; it used to relay the first 64 MiB as a 200.
func TestRouterRefusesOversizeShardAnswer(t *testing.T) {
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for left := role.MaxAnswerBytes + 10; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return // the router hung up, as it should
			}
		}
	}))
	defer shard.Close()
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"model":"synthetic"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("oversize shard answer = %d with %d body bytes, want 503", resp.StatusCode, len(body))
	}
	if code := errCode(t, body); code != "no_shard" {
		t.Fatalf("error code %q, want no_shard", code)
	}
}

// placement is one row of the router's /v1/models listing.
type placement struct {
	Primary    string `json:"primary"`
	Secondary  string `json:"secondary"`
	Generation uint64 `json:"generation"`
}

// routerModels decodes the router's /v1/models listing.
func routerModels(t *testing.T, url string) map[string]placement {
	t.Helper()
	var out struct {
		Models []struct {
			Name string `json:"name"`
			placement
		} `json:"models"`
	}
	getJSON(t, url+"/v1/models", &out)
	m := map[string]placement{}
	for _, row := range out.Models {
		m[row.Name] = row.placement
	}
	return m
}

// shardModel is one row of a shard's own /v1/models listing.
type shardModel struct {
	Path       string `json:"path"`
	SampleSize int    `json:"sample_size"`
	Generation uint64 `json:"generation"`
}

// shardModels asks one shard directly which models it serves.
func shardModels(t *testing.T, shardURL string) map[string]shardModel {
	t.Helper()
	var out struct {
		Models []struct {
			Name string `json:"name"`
			shardModel
		} `json:"models"`
	}
	getJSON(t, shardURL+"/v1/models", &out)
	m := map[string]shardModel{}
	for _, row := range out.Models {
		m[row.Name] = row.shardModel
	}
	return m
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRouterModelsReloadsNothing: the router's /v1/models asks the
// shards where each model lives and changes no replica. Both shards
// loaded the same directory, so each still serves generation 1 after
// the listing.
func TestRouterModelsReloadsNothing(t *testing.T) {
	f := newShardFarm(t, 2, true)
	primary, secondary := f.router.Ring().Lookup("synthetic")
	got := routerModels(t, f.routeTS.URL)
	if want := (placement{primary, secondary, 1}); len(got) != 1 || got["synthetic"] != want {
		t.Fatalf("router lists %+v, want synthetic at %+v", got, want)
	}
	for _, s := range f.shards {
		if m, ok := shardModels(t, s.URL)["synthetic"]; !ok || m.Generation != 1 {
			t.Fatalf("shard %s lists synthetic as %+v (present %v) after the router's listing, want generation 1", s.URL, m, ok)
		}
	}
}

// TestRouterRoutedSubdirLoadReachesBothReplicas: a routed load of a
// file in a subdirectory of the shards' model directory reaches both
// replicas, and they keep serving it after the router's listing: the
// same file, the same training set, bit-identical predictions. The
// root holds an older fit under the same name.
func TestRouterRoutedSubdirLoadReachesBothReplicas(t *testing.T) {
	f := newShardFarm(t, 2, false)
	saveSyntheticModel(t, f.dir, "synthetic", 20)
	sub := filepath.Join(f.dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	saveSyntheticModel(t, sub, "synthetic", 40)
	if resp, body := postJSON(t, f.routeTS.URL+"/v1/models/load", `{"dir":"."}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("routed root load = %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, f.routeTS.URL+"/v1/models/load", `{"path":"sub/synthetic.json"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("routed subdirectory load = %d %s", resp.StatusCode, body)
	}
	routerModels(t, f.routeTS.URL)

	var want shardModel
	var wantValue float64
	for i, s := range f.shards {
		m := shardModels(t, s.URL)["synthetic"]
		if m.SampleSize != 40 || filepath.Base(filepath.Dir(m.Path)) != "sub" {
			t.Fatalf("shard %s serves %s (%d points), want the routed sub/synthetic.json (40 points)", s.URL, m.Path, m.SampleSize)
		}
		var out struct {
			Predictions []struct {
				Value float64 `json:"value"`
			} `json:"predictions"`
		}
		resp, body := postJSON(t, s.URL+"/v1/predict",
			`{"model":"synthetic","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %s predict = %d %s", s.URL, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &out); err != nil || len(out.Predictions) != 1 {
			t.Fatalf("shard %s predict body %s: %v", s.URL, body, err)
		}
		value := out.Predictions[0].Value
		if i == 0 {
			want, wantValue = m, value
			continue
		}
		if m.Path != want.Path || value != wantValue {
			t.Fatalf("replicas disagree: %s predicts %v from %s, %s predicts %v from %s",
				f.shards[0].URL, wantValue, want.Path, s.URL, value, m.Path)
		}
	}
}

// TestRouterLoadReachesEveryShard: a shard registers a loaded file under
// the model name stored in it, not under the file's name, so a routed
// load must reach every shard. With three shards, a load of alias.json,
// which holds model synthetic, lands on all three, and a predict for
// synthetic still answers 200 once the name's ring primary is gone.
func TestRouterLoadReachesEveryShard(t *testing.T) {
	f := newShardFarm(t, 3, false)
	raw, err := os.ReadFile(filepath.Join(f.dir, "synthetic.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(f.dir, "alias.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, f.routeTS.URL+"/v1/models/load", `{"path":"alias.json"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load through router failed: %d %s", resp.StatusCode, body)
	}
	for _, s := range f.shards {
		if _, ok := shardModels(t, s.URL)["synthetic"]; !ok {
			t.Fatalf("shard %s does not list synthetic after a routed load of alias.json", s.URL)
		}
	}
	primary, _ := f.router.Ring().Lookup("synthetic")
	ps := f.shardFor(primary)
	ps.CloseClientConnections()
	ps.Close()
	if resp, body := postJSON(t, f.routeTS.URL+"/v1/predict", predictBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with synthetic's primary closed = %d %s, want 200 via failover", resp.StatusCode, body)
	}
}

// TestRouterLoadSkipsDeadShard: a shard that gives no answer does not
// stop a routed load. With three shards and the second in ring order
// closed, the load answers 503 no_shard naming that shard, and the first
// and third both load the file.
func TestRouterLoadSkipsDeadShard(t *testing.T) {
	f := newShardFarm(t, 3, false)
	shards := f.router.Ring().Shards()
	dead := f.shardFor(shards[1])
	dead.CloseClientConnections()
	dead.Close()
	resp, body := postJSON(t, f.routeTS.URL+"/v1/models/load", `{"path":"synthetic.json"}`)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"no_shard"`) ||
		!strings.Contains(string(body), shards[1]) || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("load with %s closed = %d %s, want 503 no_shard naming it, with Retry-After", shards[1], resp.StatusCode, body)
	}
	for _, live := range []string{shards[0], shards[2]} {
		if _, ok := shardModels(t, live)["synthetic"]; !ok {
			t.Fatalf("live shard %s does not list synthetic after the routed load", live)
		}
	}
}

func TestRouterRequestIDPropagates(t *testing.T) {
	f := newShardFarm(t, 2, true)
	req, _ := http.NewRequest(http.MethodPost, f.routeTS.URL+"/v1/predict", strings.NewReader(predictBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(role.RequestIDHeader, "ride-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(role.RequestIDHeader); got != "ride-7" {
		t.Fatalf("router did not echo the request ID: %q", got)
	}
}

// TestRouterStatusz: /statusz lists every shard, as "no answer yet"
// until the router has called it and by its health after.
func TestRouterStatusz(t *testing.T) {
	f := newShardFarm(t, 2, true)
	statusz := func() string {
		resp, err := http.Get(f.routeTS.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
			t.Fatalf("statusz = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		return buf.String()
	}
	page := statusz()
	for _, want := range []string{"predrouter", f.shards[0].URL, f.shards[1].URL} {
		if !strings.Contains(page, want) {
			t.Fatalf("statusz page missing %q", want)
		}
	}
	if n := strings.Count(page, "no answer yet"); n != 2 || strings.Contains(page, "unhealthy") {
		t.Fatalf("statusz before any call shows %d shards with no answer yet, want 2 and none unhealthy", n)
	}
	routerModels(t, f.routeTS.URL)
	if page = statusz(); strings.Contains(page, "no answer yet") || strings.Count(page, ">healthy<") != 2 {
		t.Fatalf("statusz after a listing does not show both shards healthy:\n%s", page)
	}
}
