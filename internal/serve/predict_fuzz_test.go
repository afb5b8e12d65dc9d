package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"predperf/internal/cluster"
	"predperf/internal/role"
)

// FuzzPredictBody sends arbitrary bytes as POST /v1/predict to a server
// holding one test model. Whatever the body, the handler must not
// panic and must answer one of the statuses the API documents: every
// failure as a structured error with a code, every success with one
// prediction per configuration, each bit-equal to the in-process model
// on the quantized configuration, in the bytes encoding/json writes.
// The body decoder must also agree with role.ReadJSON, the
// encoding/json path it falls back to: the same status, error body and
// decoded request, with or without a declared Content-Length.
func FuzzPredictBody(f *testing.F) {
	m := buildTestModel(f, "fz")
	s := New(Options{})
	if err := s.Registry().Add(m.Name, m, ""); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	cfg := func(i int) string { return string(mustJSON(f, cluster.FromConfig(m.Configs[i]))) }
	for _, body := range []string{
		`{"model":"fz","config":` + cfg(0) + `}`,
		`{"model":"fz","configs":[` + cfg(1) + `,` + cfg(2) + `]}`,
		`{"model":"fz","config":` + cfg(0) + `,"configs":[` + cfg(1) + `]}`,
		`{"model":"fz"}`,
		`{"model":"nope","config":` + cfg(0) + `}`,
		`{"model":"fz","config":` + cfg(0) + `}{"junk":1}`,
		`{"model":"fz","configs":[` + strings.Repeat(`{},`, maxBatch) + `{}]}`,
		`{"model":"fz","Config":` + cfg(0) + `}`,
		`{"model":"fz","model":"fz","configs":[]}`,
		`{"model":"f\u007a","config":{"depth":1e1,"rob":-0,"rob":01}} `,
		` {"configs":[{"depth":9223372036854775807,"iq":-9223372036854775809}],"model":"<fz>"}`,
		`null`,
	} {
		f.Add([]byte(body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, declared := range []bool{true, false} {
			fast, oracle := httptest.NewRecorder(), httptest.NewRecorder()
			var got, want predictRequest
			r := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			if !declared {
				r.ContentLength = -1
			}
			gotOK := s.readPredict(fast, r, &got)
			wantOK := role.ReadJSON(oracle, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)), s.opt.MaxBodyBytes, &want)
			if gotOK != wantOK || fast.Code != oracle.Code || fast.Body.String() != oracle.Body.String() || !reflect.DeepEqual(got, want) {
				t.Fatalf("declared length %v: decoded %v %d %q %+v, role.ReadJSON %v %d %q %+v",
					declared, gotOK, fast.Code, fast.Body, got, wantOK, oracle.Code, oracle.Body, want)
			}
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			var e struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
				t.Fatalf("status %d body %q is not a structured error", rec.Code, rec.Body.String())
			}
			return
		default:
			t.Fatalf("status %d, body %q", rec.Code, rec.Body.String())
		}
		var req predictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		in := req.Configs
		if req.Config != nil {
			in = []cluster.WireConfig{*req.Config}
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body %q: %v", rec.Body.String(), err)
		}
		var enc bytes.Buffer
		json.NewEncoder(&enc).Encode(resp)
		if rec.Body.String() != enc.String() {
			t.Fatalf("200 body %q, encoding/json writes %q", rec.Body, enc.String())
		}
		if len(resp.Predictions) != len(in) {
			t.Fatalf("%d predictions for %d configs", len(resp.Predictions), len(in))
		}
		for i, wc := range in {
			q := m.Space.Decode(m.Space.Encode(wc.Config()), m.SampleSize)
			p := resp.Predictions[i]
			if p.Config != cluster.FromConfig(q) || p.Value != m.PredictConfig(q) {
				t.Fatalf("prediction %d = %+v, want config %+v value %x", i, p, cluster.FromConfig(q), m.PredictConfig(q))
			}
		}
	})
}
