package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/core"
)

// encodeJSON is what json.NewEncoder(w).Encode writes for v, the
// oracle of every hand-written encoder here.
func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPredictResponseBytesMatchEncodingJSON: appendPredictResponse
// writes json.NewEncoder's bytes, newline included, for the float64
// format boundaries and every flag combination, and refuses a model
// name encoding/json would escape.
func TestPredictResponseBytesMatchEncodingJSON(t *testing.T) {
	wc := cluster.WireConfig{Depth: 12, ROB: 96, IQ: 48, LSQ: 48, L2KB: 2048, L2Lat: 10, IL1KB: 32, DL1KB: 32, DL1Lat: 2}
	var preds []prediction
	for i, v := range []float64{
		0, math.Copysign(0, -1), 1.25, -3, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, -1e21,
		5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3,
	} {
		c := wc
		c.ROB = -i
		preds = append(preds, prediction{Config: c, Value: v, Cached: i%2 == 0, Clamped: i%3 == 0})
	}
	for _, resp := range []predictResponse{
		{Model: "mcf", Predictions: preds},
		{Model: "m", Predictions: preds[:1]},
		{Model: "", Predictions: []prediction{}},
	} {
		got, ok := appendPredictResponse(nil, &resp)
		if want := encodeJSON(t, resp); !ok || string(got) != want {
			t.Errorf("appendPredictResponse = %q (ok %v), encoding/json writes %q", got, ok, want)
		}
	}
	for _, resp := range []predictResponse{
		{Model: "a<b>&c", Predictions: preds},
		{Model: "é", Predictions: preds},
		{Model: "m"}, // nil predictions: encoding/json writes null
	} {
		if _, ok := appendPredictResponse(nil, &resp); ok {
			t.Errorf("appendPredictResponse accepted %+v, which it cannot write as encoding/json does", resp)
		}
	}
}

// TestPredictBodiesMatchEncodingJSON: through the handler, a cached, an
// uncached, a clamped and a batch answer, and one for a model name that
// needs HTML escaping, are the bytes encoding/json writes for the
// decoded response.
func TestPredictBodiesMatchEncodingJSON(t *testing.T) {
	m := buildTestModel(t, "x")
	s := New(Options{})
	for _, name := range []string{"plain", "a<b>&c"} {
		if err := s.Registry().Add(name, m, ""); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	cfg := string(mustJSON(t, cluster.FromConfig(m.Configs[0])))
	offGrid := `{"depth":1,"rob":100000,"iq":3,"lsq":3,"l2kb":1,"l2lat":1,"il1kb":1,"dl1kb":1,"dl1lat":1}`
	for _, body := range []string{
		`{"model":"plain","config":` + cfg + `}`,
		`{"model":"plain","config":` + cfg + `}`, // now cached
		`{"model":"plain","config":` + offGrid + `}`,
		`{"model":"plain","configs":[` + cfg + `,` + offGrid + `]}`,
		`{"model":"a<b>&c","config":` + cfg + `}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q: %s", body, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if want := encodeJSON(t, resp); rec.Body.String() != want {
			t.Errorf("%s: body %q, encoding/json writes %q", body, rec.Body, want)
		}
	}
}

// TestAccessLogBytesMatchEncodingJSON: appendAccessEntry writes
// json.Encoder's line, with and without the omitempty fields, and
// refuses any string encoding/json would escape; through the
// middleware such a line is still the encoder's.
func TestAccessLogBytesMatchEncodingJSON(t *testing.T) {
	base := accessEntry{
		Time: "2026-10-17T12:31:15.123Z", ID: "0123abcd", Remote: "192.0.2.1:1234",
		Method: "POST", Path: "/v1/predict", Status: 200, Bytes: 171, DurMS: 0.123456, UserAgent: "curl/8.5.0",
	}
	for _, mod := range []func(*accessEntry){
		func(*accessEntry) {},
		func(e *accessEntry) { e.Remote, e.UserAgent = "", "" },
		func(e *accessEntry) { e.DurMS, e.Bytes, e.Status = 0, 0, 0 },
		func(e *accessEntry) { e.DurMS = 1e-7 },
		func(e *accessEntry) { e.DurMS = 2.5e21 },
		func(e *accessEntry) { e.Remote = "[::1]:80" },
	} {
		e := base
		mod(&e)
		got, ok := appendAccessEntry(nil, &e)
		if want := encodeJSON(t, e); !ok || string(got) != want {
			t.Errorf("appendAccessEntry = %q (ok %v), encoding/json writes %q", got, ok, want)
		}
	}
	for _, mod := range []func(*accessEntry){
		func(e *accessEntry) { e.Path = "/a<b>" },
		func(e *accessEntry) { e.Method = "M&M" },
		func(e *accessEntry) { e.UserAgent = "agent \"quoted\"" },
		func(e *accessEntry) { e.UserAgent = "ünïcode" },
	} {
		e := base
		mod(&e)
		if _, ok := appendAccessEntry(nil, &e); ok {
			t.Errorf("appendAccessEntry accepted %+v, which encoding/json escapes", e)
		}
	}

	_, ts, logBuf := newObsTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/a%3Cb%3E&%22", nil)
	req.Header.Set("User-Agent", "agent <7> ü")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	line := logBuf.String()
	var e accessEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	if e.Path != `/a<b>&"` || e.UserAgent != "agent <7> ü" {
		t.Errorf("logged path %q, user agent %q", e.Path, e.UserAgent)
	}
	if want := encodeJSON(t, e); line != want {
		t.Errorf("access log line %q, encoding/json writes %q", line, want)
	}
}

// nonFiniteModel is a test model whose weights are all math.MaxFloat64:
// it loads (every radius is positive and finite), but its prediction
// of Configs[0] overflows to a non-finite value.
func nonFiniteModel(t *testing.T, name string) *core.Model {
	t.Helper()
	m := buildTestModel(t, name)
	for i := range m.Fit.Net.Weights {
		m.Fit.Net.Weights[i] = math.MaxFloat64
	}
	if v := m.PredictConfig(m.Configs[0]); !math.IsInf(v, 0) && !math.IsNaN(v) {
		t.Fatalf("fixture predicts %v, want a non-finite value", v)
	}
	return m
}

// TestPredictNonFinite: JSON has no infinity, so a prediction that
// overflows (nonFiniteModel) answers a structured 500, not a 200 with
// an empty body.
func TestPredictNonFinite(t *testing.T) {
	m := nonFiniteModel(t, "huge")
	q := m.Configs[0]
	s := New(Options{})
	if err := s.Registry().Add("huge", m, ""); err != nil {
		t.Fatal(err)
	}
	cfg := string(mustJSON(t, cluster.FromConfig(q)))
	for _, body := range []string{
		`{"model":"huge","config":` + cfg + `}`,
		`{"model":"huge","configs":[` + cfg + `,` + cfg + `]}`,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		var e struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusInternalServerError ||
			err != nil || e.Error.Code != "non_finite_prediction" {
			t.Errorf("%s: status %d body %q, want 500 non_finite_prediction", body, rec.Code, rec.Body)
		}
	}
}
