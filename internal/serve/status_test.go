package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/obs"
)

// fakeClock drives the server's windows, SLOs, and alerts in tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// TestReadyzLifecycle walks /readyz through its states: 503 with
// no_models on an empty registry, 200 once a model loads, 503 within one
// window rotation of an SLO-violating latency burst, and recovery once
// the burst ages out of the fast burn window.
func TestReadyzLifecycle(t *testing.T) {
	obs.Reset()
	clk := newFakeClock()
	s := New(Options{Clock: clk.now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty registry: unready with a structured reason.
	resp, body := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "no_models") {
		t.Fatalf("empty registry: status %d body %s, want 503 no_models", resp.StatusCode, body)
	}

	// Load a model: ready.
	if err := s.Registry().Add("ready", buildTestModel(t, "ready"), ""); err != nil {
		t.Fatal(err)
	}
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ready"`) {
		t.Fatalf("after load: status %d body %s, want 200 ready", resp.StatusCode, body)
	}

	// An SLO-violating burst: every request blows the latency objective,
	// so the latency SLO burns at ~1000× (bad fraction ~1 against a 0.1%
	// budget) on both windows. The observations go straight into the
	// request histogram — the same path the middleware feeds.
	for i := 0; i < 200; i++ {
		hAllRequests.Observe(10)
	}
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "slo_burn") {
		t.Fatalf("under burn: status %d body %s, want 503 slo_burn", resp.StatusCode, body)
	}

	// /alertz records the firing condition with its onset time.
	resp, body = getBody(t, ts.URL+"/alertz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alertz status %d", resp.StatusCode)
	}
	var alertz struct {
		Firing int         `json:"firing"`
		Alerts []obs.Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &alertz); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if alertz.Firing == 0 {
		t.Fatalf("alertz reports nothing firing: %s", body)
	}
	foundBurn := false
	for _, al := range alertz.Alerts {
		if al.Name == "slo_burn:latency" && al.Firing && al.Since != "" {
			foundBurn = true
		}
	}
	if !foundBurn {
		t.Fatalf("alertz missing a firing slo_burn:latency: %s", body)
	}

	// Six minutes later the burst has aged out of the 5m fast window, so
	// the multi-window AND stops firing and readiness recovers.
	clk.advance(6 * time.Minute)
	obs.TickWindows()
	resp, body = getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after recovery: status %d body %s, want 200", resp.StatusCode, body)
	}

	// The alert log keeps the resolved entry with its resolution time.
	_, body = getBody(t, ts.URL+"/alertz")
	if err := json.Unmarshal([]byte(body), &alertz); err != nil {
		t.Fatal(err)
	}
	for _, al := range alertz.Alerts {
		if al.Name == "slo_burn:latency" {
			if al.Firing || al.ResolvedAt == "" {
				t.Fatalf("slo_burn:latency not resolved with a timestamp: %+v", al)
			}
		}
	}
}

func TestStatuszPage(t *testing.T) {
	obs.Reset()
	clk := newFakeClock()
	s := New(Options{Clock: clk.now})
	if err := s.Registry().Add("dashboard", buildTestModel(t, "dashboard"), ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive a little traffic so the route table has numbers.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/predict",
			`{"model":"dashboard","config":{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}}`)
	}

	resp, body := getBody(t, ts.URL+"/statusz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statusz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type %q, want text/html", ct)
	}
	for _, want := range []string{
		"<!DOCTYPE html>",
		"predserve status",
		">READY<",                 // readiness badge
		"dashboard",               // the model row
		"/v1/predict",             // the route table
		"<svg",                    // a sparkline rendered
		Build().GoVersion,         // build info in the header
		"latency", "availability", // the two declared SLOs
	} {
		if !strings.Contains(body, want) {
			t.Errorf("statusz missing %q", want)
		}
	}
	// html/template escaping intact: no raw template actions leaked.
	if strings.Contains(body, "{{") {
		t.Error("statusz leaked unexecuted template actions")
	}
}

func TestHealthzCarriesBuildInfo(t *testing.T) {
	obs.Reset()
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status string    `json:"status"`
		Build  BuildInfo `json:"build"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz = %s", body)
	}
	if h.Build.GoVersion == "" || h.Build.ModelFormat < 1 {
		t.Fatalf("healthz build info incomplete: %+v", h.Build)
	}
}

// TestRequestSLODeclarations pins the four request SLOs — this server's
// and the router fleet plane's — as /alertz, /statusz, /fleetz and run
// reports show them.
func TestRequestSLODeclarations(t *testing.T) {
	New(Options{})
	if _, err := cluster.NewRouter(cluster.RouterOptions{Shards: []string{"127.0.0.1:1"}}); err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, desc string }{
		{"latency", "99.9% of requests complete within 250ms"},
		{"availability", "99.9% of responses are non-5xx"},
		{"fleet-latency", "99.9% of fleet requests complete within 250ms"},
		{"fleet-availability", "99.9% of fleet responses are non-5xx"},
	}
	states := map[string]obs.SLOState{}
	for _, st := range obs.SLOStates() {
		states[st.Name] = st
	}
	for _, w := range want {
		st, ok := states[w.name]
		if !ok {
			t.Errorf("SLO %q is not registered", w.name)
			continue
		}
		if st.Description != w.desc || st.Objective != 0.999 || st.Threshold != 14.4 {
			t.Errorf("SLO %q = %q objective %v threshold %v, want %q objective 0.999 threshold 14.4",
				w.name, st.Description, st.Objective, st.Threshold, w.desc)
		}
	}
}
