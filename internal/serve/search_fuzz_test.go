package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSearchBody posts arbitrary bodies to /v1/search on a server with
// one paper-space model. No body may panic the handler, and so drop the
// connection: every answer is a 200 with at most maxSearchShortlist
// verified candidates, or a structured JSON error. A shortlist or a
// grid_levels of 2^62 once sized an allocation straight from the
// request.
func FuzzSearchBody(f *testing.F) {
	m := buildTestModel(f, "fz")
	s := New(Options{})
	if err := s.Registry().Add(m.Name, m, ""); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	for _, body := range []string{
		`{"model":"fz"}`,
		`{"model":"fz","shortlist":16,"grid_levels":3}`,
		`{"model":"fz","grid_levels":16}`,
		`{"model":"fz","shortlist":4611686018427387904}`,
		`{"model":"fz","grid_levels":4611686018427387904}`,
		`{"model":"fz","shortlist":-4611686018427387904,"grid_levels":2,"verify":"model"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var e struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
				t.Fatalf("status %d body %q is not a structured error", rec.Code, rec.Body.String())
			}
			return
		}
		var resp searchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body %q: %v", rec.Body.String(), err)
		}
		if resp.Verified != len(resp.Shortlist) || resp.Verified > maxSearchShortlist {
			t.Fatalf("verified %d with a shortlist of %d, want equal and at most %d", resp.Verified, len(resp.Shortlist), maxSearchShortlist)
		}
	})
}
