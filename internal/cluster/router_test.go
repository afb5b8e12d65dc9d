package cluster_test

import (
	"bytes"
	"context"
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

func saveSyntheticModel(t *testing.T, dir, name string) {
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

// shardFarm is two predserve shards sharing one model directory — the
// deployment shape the router's re-sync protocol assumes — plus a
// router over them with the background loop off (tests drive SyncOnce).
type shardFarm struct {
	dir     string
	shards  []*httptest.Server
	router  *cluster.Router
	routeTS *httptest.Server
}

func newShardFarm(t *testing.T, loadAll bool) *shardFarm {
	t.Helper()
	f := &shardFarm{dir: t.TempDir()}
	saveSyntheticModel(t, f.dir, "synthetic")
	for i := 0; i < 2; i++ {
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
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:       []string{f.shards[0].URL, f.shards[1].URL},
		SyncInterval: -1,
	})
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
	f := newShardFarm(t, true)
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
	f := newShardFarm(t, true)
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
	f := newShardFarm(t, true)
	f.router.SyncOnce(context.Background()) // marks both shards healthy
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
	f := newShardFarm(t, true)
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
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards: []string{shard.URL}, SyncInterval: -1,
	})
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

// routerModels decodes the router's merged /v1/models listing.
func routerModels(t *testing.T, url string) map[string]struct {
	Primary    string `json:"primary"`
	Secondary  string `json:"secondary"`
	Generation uint64 `json:"generation"`
	SyncedGen  uint64 `json:"synced_generation"`
} {
	t.Helper()
	resp, err := http.Get(url + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []struct {
			Name       string `json:"name"`
			Primary    string `json:"primary"`
			Secondary  string `json:"secondary"`
			Generation uint64 `json:"generation"`
			SyncedGen  uint64 `json:"synced_generation"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	m := map[string]struct {
		Primary    string `json:"primary"`
		Secondary  string `json:"secondary"`
		Generation uint64 `json:"generation"`
		SyncedGen  uint64 `json:"synced_generation"`
	}{}
	for _, row := range out.Models {
		m[row.Name] = struct {
			Primary    string `json:"primary"`
			Secondary  string `json:"secondary"`
			Generation uint64 `json:"generation"`
			SyncedGen  uint64 `json:"synced_generation"`
		}{row.Primary, row.Secondary, row.Generation, row.SyncedGen}
	}
	return m
}

// shardHasModel asks one shard directly whether it serves the model and
// at which generation.
func shardHasModel(t *testing.T, shardURL, name string) (bool, uint64) {
	t.Helper()
	resp, err := http.Get(shardURL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, m := range out.Models {
		if m.Name == name {
			return true, m.Generation
		}
	}
	return false, 0
}

func TestRouterResyncsSecondaryOnGenerationBump(t *testing.T) {
	// Shards start empty; the model is loaded on the primary only, as a
	// hot load in production would land on one shard.
	f := newShardFarm(t, false)
	primary, secondary := f.router.Ring().Lookup("synthetic")
	resp, body := postJSON(t, primary+"/v1/models/load", `{"path":"synthetic.json"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary load failed: %d %s", resp.StatusCode, body)
	}
	if ok, _ := shardHasModel(t, secondary, "synthetic"); ok {
		t.Fatal("secondary has the model before any sync; the test premise is broken")
	}

	// The sync pass must notice the unsynced replica and push the load.
	models := routerModels(t, f.routeTS.URL) // GET /v1/models runs SyncOnce
	m, ok := models["synthetic"]
	if !ok {
		t.Fatalf("router did not discover the model: %v", models)
	}
	if m.Primary != primary || m.Secondary != secondary {
		t.Fatalf("placement (%s, %s) disagrees with the ring (%s, %s)", m.Primary, m.Secondary, primary, secondary)
	}
	if ok, gen := shardHasModel(t, secondary, "synthetic"); !ok || gen == 0 {
		t.Fatalf("secondary not re-synced after sync pass (present=%v gen=%d)", ok, gen)
	}

	// A hot swap on the primary bumps its generation; the next sync pass
	// must re-push so failover serves current coefficients.
	_, genBefore := shardHasModel(t, secondary, "synthetic")
	resp, body = postJSON(t, primary+"/v1/models/load", `{"path":"synthetic.json"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary reload failed: %d %s", resp.StatusCode, body)
	}
	models = routerModels(t, f.routeTS.URL)
	m = models["synthetic"]
	if m.SyncedGen != m.Generation {
		t.Fatalf("replica left stale after generation bump: synced %d, primary %d", m.SyncedGen, m.Generation)
	}
	if _, genAfter := shardHasModel(t, secondary, "synthetic"); genAfter <= genBefore {
		t.Fatalf("secondary generation did not advance on re-sync: %d → %d", genBefore, genAfter)
	}
}

func TestRouterLoadFansToPrimaryAndSecondary(t *testing.T) {
	f := newShardFarm(t, false)
	resp, body := postJSON(t, f.routeTS.URL+"/v1/models/load", `{"path":"synthetic.json"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load through router failed: %d %s", resp.StatusCode, body)
	}
	for _, s := range f.shards {
		if ok, _ := shardHasModel(t, s.URL, "synthetic"); !ok {
			t.Fatalf("shard %s did not receive the fanned-out load", s.URL)
		}
	}
	// With both replicas loaded, predictions flow immediately.
	if resp, body := postJSON(t, f.routeTS.URL+"/v1/predict", predictBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after router load = %d %s", resp.StatusCode, body)
	}
}

func TestRouterRequestIDPropagates(t *testing.T) {
	f := newShardFarm(t, true)
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

func TestRouterStatusz(t *testing.T) {
	f := newShardFarm(t, true)
	routerModels(t, f.routeTS.URL) // prime topology
	resp, err := http.Get(f.routeTS.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	page := buf.String()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("statusz = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"predrouter", "synthetic", f.shards[0].URL, f.shards[1].URL} {
		if !strings.Contains(page, want) {
			t.Fatalf("statusz page missing %q", want)
		}
	}
}
