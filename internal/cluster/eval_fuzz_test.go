package cluster_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"predperf/internal/cluster"
)

// FuzzEvalRequest posts arbitrary bodies to a worker's /v1/eval with a
// 2000-instruction trace limit. Every answer but a 200 has the JSON
// error shape, and a 200 holds one value per requested config.
func FuzzEvalRequest(f *testing.F) {
	h := cluster.NewWorker(cluster.WorkerOptions{MaxTraceLen: 2000, Workers: 1}).Handler()
	const cfg = `{"depth":12,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}`
	for _, seed := range []string{
		// The bodies of the worker endpoint tests.
		`{"benchmark":"mcf","trace_len":2000,"configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"metric":"epi","configs":[` + cfg + `,` + cfg + `]}`,
		`{"trace_len":1000,"configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":0,"configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":99999999,"configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[]}`,
		`{"benchmark":"mcf","trace_len":1000,"metric":"nope","configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":0,"rob":96,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`,
		`{"benchmark":"nosuch","trace_len":1000,"configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"zzz":1,"configs":[` + cfg + `]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":12,"rob":4611686018427387904,"iq":48,"lsq":48,"l2kb":2048,"l2lat":10,"il1kb":32,"dl1kb":32,"dl1lat":2}]}`,
		`{"benchmark":"mcf","trace_len":1000,"configs":[{"depth":96,"rob":512,"iq":512,"lsq":512,"l2kb":32768,"l2lat":80,"il1kb":256,"dl1kb":256,"dl1lat":16}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var e struct {
				Error struct {
					Code, Message string
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
				t.Fatalf("status %d answered %q, want the JSON error shape", rec.Code, rec.Body.Bytes())
			}
			return
		}
		var req cluster.EvalRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var resp cluster.EvalResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Values) != len(req.Configs) {
			t.Fatalf("200 answered %q for %d configs", rec.Body.Bytes(), len(req.Configs))
		}
	})
}
