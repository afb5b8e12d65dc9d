package role_test

import (
	"encoding/json"
	"fmt"
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
		Shards:       []string{serveTS.URL},
		MaxBodyBytes: maxBody,
		SyncInterval: -1,
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
		Error obs.APIError `json:"error"`
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
			post := func(hdr map[string]string) *http.Response {
				resp, _ := call(t, http.MethodPost, rl.url+rl.post, rl.body, hdr)
				return resp
			}

			// An invalid X-Request-Id is replaced, never echoed.
			resp, _ := call(t, http.MethodGet, healthz, "", map[string]string{role.RequestIDHeader: "not valid!"})
			if got := resp.Header.Get(role.RequestIDHeader); !generatedID.MatchString(got) {
				t.Errorf("invalid request ID answered with %q, want a generated ID", got)
			}

			// A valid one is echoed, and at sample rate 1 the edge request
			// is traced under a "<role>.request" root.
			id := "conf-edge-" + rl.name
			resp = post(map[string]string{role.RequestIDHeader: id})
			if got := resp.Header.Get(role.RequestIDHeader); got != id {
				t.Errorf("valid request ID echoed as %q, want %q", got, id)
			}
			if tr, _, ok := rl.traces.Get(id); !ok || !hasSpan(tr, rl.name+".request") {
				t.Errorf("edge request not traced under a %s.request root (stored: %v)", rl.name, ok)
			} else if root, _ := span(tr, rl.name+".request"); strings.Join(root.Args, " ") != rl.attr+" "+rl.post {
				t.Errorf("root span args %q, want [%s %s]", root.Args, rl.attr, rl.post)
			}

			// An unsampled traceparent: no trace is stored, and the ID is
			// still echoed.
			id = "conf-unsampled-" + rl.name
			resp = post(map[string]string{role.RequestIDHeader: id, obs.TraceparentHeader: traceparent(id, false)})
			if got := resp.Header.Get(role.RequestIDHeader); got != id {
				t.Errorf("unsampled hop echoed %q, want %q", got, id)
			}
			if _, _, ok := rl.traces.Get(id); ok {
				t.Error("unsampled hop stored a trace")
			}

			// A sampled remote traceparent: the hop is traced, without a
			// local root span, and its spans go back on the trailer.
			id = "conf-remote-" + rl.name
			resp = post(map[string]string{role.RequestIDHeader: id, obs.TraceparentHeader: traceparent(id, true)})
			if tr, _, ok := rl.traces.Get(id); !ok {
				t.Error("sampled remote hop stored no trace")
			} else if hasSpan(tr, rl.name+".request") {
				t.Error("sampled remote hop opened a local root span")
			}
			if resp.Trailer.Get(obs.SpanTrailerHeader) == "" {
				t.Error("sampled remote hop returned no span trailer")
			}

			// The ops surface is never traced, whatever the traceparent
			// says, and returns no trailer; the ID is still echoed.
			for _, path := range []string{"/metricz", "/healthz"} {
				for _, sampled := range []bool{false, true} {
					id := fmt.Sprintf("conf-ops-%s%s-%v", rl.name, strings.TrimPrefix(path, "/"), sampled)
					hdr := map[string]string{role.RequestIDHeader: id}
					if sampled {
						hdr[obs.TraceparentHeader] = traceparent(id, true)
					}
					resp, _ := call(t, http.MethodGet, rl.url+path, "", hdr)
					if got := resp.Header.Get(role.RequestIDHeader); got != id {
						t.Errorf("%s echoed %q, want %q", path, got, id)
					}
					if _, _, ok := rl.traces.Get(id); ok {
						t.Errorf("%s (sampled traceparent: %v) stored a trace", path, sampled)
					}
					if len(resp.Trailer) != 0 {
						t.Errorf("%s (sampled traceparent: %v) returned trailers %v", path, sampled, resp.Trailer)
					}
				}
			}

			// A wrong method: 405 with Allow and a structured body, on
			// the role's own routes and on its trace store alike.
			for _, path := range []string{"/healthz", "/tracez"} {
				resp, body := call(t, http.MethodDelete, rl.url+path, "", nil)
				if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodGet ||
					resp.Header.Get("Content-Type") != "application/json" || errorCode(t, body) != "method_not_allowed" {
					t.Errorf("DELETE %s = %d, Allow %q, Content-Type %q: %s", path, resp.StatusCode,
						resp.Header.Get("Allow"), resp.Header.Get("Content-Type"), body)
				}
			}

			// An oversize body: 413 body_too_large.
			big := `{"model":"` + strings.Repeat("x", maxBody) + `"}`
			resp, body := call(t, http.MethodPost, rl.url+rl.post, big, nil)
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

// FuzzPeekModel holds the router's model peek to the encoding/json
// decode it replaced: for any body, PeekModel answers as PeekJSON into
// a {"model"} envelope does, with the same model, status and error body,
// and returns the body unchanged.
func FuzzPeekModel(f *testing.F) {
	for _, seed := range []string{
		`{"model":"mcf","config":{"depth":12}}`,
		` {"configs":[[{"a":"é"}],1.5e3,null,true],"model":"m"} `,
		`{"model":"a","model":"b"}`,
		`{"Model":"a"}`,
		`{"model":1}`,
		`{"model":null}`,
		`{"model":"x"}`,
		`{"model":"m"}`,
		`{"model":"é"}`,
		`{"model":"a"}{"junk":1}`,
		`{"model":"a"} x`,
		`[{"model":"a"}]`,
		`null`,
		``,
		strings.Repeat(`{"a":`, 70) + `1` + strings.Repeat(`}`, 70),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		post := func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(body)))
		}
		fast, oracle := httptest.NewRecorder(), httptest.NewRecorder()
		gotBody, model, gotOK := role.PeekModel(fast, post(), 1<<20)
		var env struct {
			Model string `json:"model"`
		}
		_, wantOK := role.PeekJSON(oracle, post(), 1<<20, &env)
		if gotOK != wantOK || model != env.Model || fast.Code != oracle.Code || fast.Body.String() != oracle.Body.String() {
			t.Fatalf("PeekModel = %q %v %d %q; PeekJSON = %q %v %d %q",
				model, gotOK, fast.Code, fast.Body, env.Model, wantOK, oracle.Code, oracle.Body)
		}
		if string(gotBody) != string(body) {
			t.Fatalf("PeekModel returned body %q, want %q", gotBody, body)
		}
	})
}

// TestReadJSONFastReadError: a body that fails mid-read, or ends short
// of its declared length, reaches ReadJSON with the bytes read and then
// the same error, so the answer is ReadJSON's, whether or not the
// request declared its length.
func TestReadJSONFastReadError(t *testing.T) {
	bodies := map[string]func() io.Reader{
		"read error": func() io.Reader { return errAfter{strings.NewReader(`{"model":`)} },
		"short":      func() io.Reader { return strings.NewReader(`{"model":"m"}`) },
	}
	for name, body := range bodies {
		for _, declared := range []int64{-1, 40} {
			answer := func(fast bool) (*httptest.ResponseRecorder, string) {
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", body())
				req.ContentLength = declared
				rec := httptest.NewRecorder()
				var v struct{ Model string }
				if fast {
					role.ReadJSONFast(rec, req, maxBody, &v, func([]byte) bool { t.Error("offered an incomplete body"); return true })
				} else {
					role.ReadJSON(rec, req, maxBody, &v)
				}
				return rec, v.Model
			}
			got, gotModel := answer(true)
			want, wantModel := answer(false)
			if got.Code != want.Code || got.Body.String() != want.Body.String() || gotModel != wantModel {
				t.Errorf("%s, declared %d: ReadJSONFast = %d %s %q, ReadJSON = %d %s %q",
					name, declared, got.Code, got.Body, gotModel, want.Code, want.Body, wantModel)
			}
		}
	}
}
