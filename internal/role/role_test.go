package role_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
	"predperf/internal/serve"
)

// maxBody is the body limit every role under test runs with, so one
// oversize body trips all three.
const maxBody = 512

// roleUnderTest is one live role and what the shared table needs to
// know about it.
type roleUnderTest struct {
	name   string // root span prefix, "<name>.request"
	url    string
	traces *obs.TraceStore
	post   string // a POST route that decodes a JSON body
	body   string // a well-formed body for post
	attr   string // the root span attribute that names the request
}

// newRoles serves predserve, a simworker, and a predrouter in front of
// the predserve, each sampling every edge request (the default).
func newRoles(t *testing.T) []roleUnderTest {
	t.Helper()
	srv := serve.New(serve.Options{MaxBodyBytes: maxBody})
	serveTS := httptest.NewServer(srv.Handler())
	t.Cleanup(serveTS.Close)

	wk := cluster.NewWorker(cluster.WorkerOptions{MaxBodyBytes: maxBody})
	workerTS := httptest.NewServer(wk.Handler())
	t.Cleanup(workerTS.Close)

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:              []string{serveTS.URL},
		MaxBodyBytes:        maxBody,
		SyncInterval:        -1,
		FleetScrapeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(routerTS.Close)

	const cfg = `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`
	predict := `{"model":"mcf","config":` + cfg + `}`
	eval := `{"benchmark":"mcf","trace_len":1000,"configs":[` + cfg + `]}`
	return []roleUnderTest{
		{"serve", serveTS.URL, srv.Traces(), "/v1/predict", predict, "route"},
		{"worker", workerTS.URL, wk.Traces(), "/v1/eval", eval, "path"},
		{"router", routerTS.URL, rt.Traces(), "/v1/predict", predict, "path"},
	}
}

// call sends one request and returns the response with its body read.
func call(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// errorCode decodes the code of a structured error body.
func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error role.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("not a structured error body: %s", body)
	}
	return e.Error.Code
}

// hasSpan reports whether tr recorded a span with the given name.
func hasSpan(tr *obs.Trace, name string) bool {
	_, ok := span(tr, name)
	return ok
}

// span returns tr's first span with the given name.
func span(tr *obs.Trace, name string) (obs.SpanInfo, bool) {
	for _, s := range tr.Spans() {
		if s.Name == name {
			return s, true
		}
	}
	return obs.SpanInfo{}, false
}

func traceparent(id string, sampled bool) string {
	return obs.FormatTraceparent(obs.SpanContext{TraceID: id, ParentID: 7, Sampled: sampled})
}

var generatedID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestRoleConformance drives predserve, simworker and predrouter with
// one table. All three run the same edge middleware and body reader,
// so every case must come out the same on every role.
func TestRoleConformance(t *testing.T) {
	for _, rl := range newRoles(t) {
		t.Run(rl.name, func(t *testing.T) {
			healthz := rl.url + "/healthz"

			// An invalid X-Request-Id is replaced, never echoed.
			resp, _ := call(t, http.MethodGet, healthz, "", map[string]string{role.RequestIDHeader: "not valid!"})
			if got := resp.Header.Get(role.RequestIDHeader); !generatedID.MatchString(got) {
				t.Errorf("invalid request ID answered with %q, want a generated ID", got)
			}

			// A valid one is echoed, and at sample rate 1 the edge request
			// is traced under a "<role>.request" root.
			id := "conf-edge-" + rl.name
			resp, _ = call(t, http.MethodGet, healthz, "", map[string]string{role.RequestIDHeader: id})
			if got := resp.Header.Get(role.RequestIDHeader); got != id {
				t.Errorf("valid request ID echoed as %q, want %q", got, id)
			}
			if tr, _, ok := rl.traces.Get(id); !ok || !hasSpan(tr, rl.name+".request") {
				t.Errorf("edge request not traced under a %s.request root (stored: %v)", rl.name, ok)
			} else if root, _ := span(tr, rl.name+".request"); strings.Join(root.Args, " ") != rl.attr+" /healthz" {
				t.Errorf("root span args %q, want [%s /healthz]", root.Args, rl.attr)
			}

			// An unsampled traceparent: no trace is stored, and the ID is
			// still echoed.
			id = "conf-unsampled-" + rl.name
			resp, _ = call(t, http.MethodGet, healthz, "", map[string]string{
				role.RequestIDHeader: id, obs.TraceparentHeader: traceparent(id, false),
			})
			if got := resp.Header.Get(role.RequestIDHeader); got != id {
				t.Errorf("unsampled hop echoed %q, want %q", got, id)
			}
			if _, _, ok := rl.traces.Get(id); ok {
				t.Error("unsampled hop stored a trace")
			}

			// A sampled remote traceparent: the hop is traced, without a
			// local root span.
			id = "conf-remote-" + rl.name
			call(t, http.MethodGet, healthz, "", map[string]string{
				role.RequestIDHeader: id, obs.TraceparentHeader: traceparent(id, true),
			})
			if tr, _, ok := rl.traces.Get(id); !ok {
				t.Error("sampled remote hop stored no trace")
			} else if hasSpan(tr, rl.name+".request") {
				t.Error("sampled remote hop opened a local root span")
			}

			// A wrong method: 405 with Allow and a structured body.
			resp, body := call(t, http.MethodDelete, healthz, "", nil)
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet ||
				errorCode(t, body) != "method_not_allowed" {
				t.Errorf("DELETE /healthz = %d, Allow %q: %s", resp.StatusCode, resp.Header.Get("Allow"), body)
			}

			// An oversize body: 413 body_too_large.
			big := `{"model":"` + strings.Repeat("x", maxBody) + `"}`
			resp, body = call(t, http.MethodPost, rl.url+rl.post, big, nil)
			if resp.StatusCode != http.StatusRequestEntityTooLarge || errorCode(t, body) != "body_too_large" {
				t.Errorf("oversize POST %s = %d: %s", rl.post, resp.StatusCode, body)
			}
		})
	}
}

// TestTrailingJSONRejected: a well-formed body followed by a second JSON
// value is malformed input, and every role answers it with the same
// structured 400, byte for byte.
func TestTrailingJSONRejected(t *testing.T) {
	var first []byte
	for _, rl := range newRoles(t) {
		resp, body := call(t, http.MethodPost, rl.url+rl.post, rl.body+`{"junk":1}`, nil)
		if resp.StatusCode != http.StatusBadRequest || errorCode(t, body) != "bad_json" {
			t.Errorf("%s: trailing data = %d %s, want 400 bad_json", rl.name, resp.StatusCode, body)
		}
		if first == nil {
			first = body
		} else if string(body) != string(first) {
			t.Errorf("%s answered %s; predserve answered %s", rl.name, body, first)
		}
	}
}

// errAfter is a request body that fails mid-read, as a client that
// drops its connection does.
type errAfter struct{ r io.Reader }

func (e errAfter) Read(p []byte) (int, error) {
	if n, _ := e.r.Read(p); n > 0 {
		return n, nil
	}
	return 0, io.ErrUnexpectedEOF
}

// TestPeekJSONReadError: the router answers any failure to read the body
// it forwards with 413 body_too_large, as it always has; only a body it
// read whole can be bad_json.
func TestPeekJSONReadError(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", errAfter{strings.NewReader(`{"model":`)})
	rec := httptest.NewRecorder()
	var v struct{ Model string }
	if _, ok := role.PeekJSON(rec, req, maxBody, &v); ok || rec.Code != http.StatusRequestEntityTooLarge ||
		errorCode(t, rec.Body.Bytes()) != "body_too_large" {
		t.Errorf("body read error = %d %s, want 413 body_too_large", rec.Code, rec.Body)
	}
}
