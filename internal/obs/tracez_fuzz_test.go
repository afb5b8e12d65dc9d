package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzTracez sends arbitrary q, route, id and format values to a
// TraceStore's handler holding a few traces. Every answer must be 200,
// 400 or 404 without a panic; any other answer must be the structured
// JSON error every role answers with; a JSON answer must parse; an HTML
// answer must be a complete page that shows no input holding "<"
// verbatim, unless the same text is on the store's own pages anyway.
func FuzzTracez(f *testing.F) {
	store := NewTraceStore(4)
	start := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for i, id := range []string{"trace-ok", "trace-err", "retrain-1"} {
		tr := NewTrace(id)
		ctx, end := StartSpanCtx(WithTrace(context.Background(), tr), "serve.request", "route", "/v1/predict")
		_, endChild := StartSpanArgs(ctx, "serve.predict", "model", "a<b>&c")
		endChild("odd")
		end()
		store.Add(tr, TraceMeta{ID: id, Route: "/v1/predict", Status: 200 + 300*(i%2),
			Start: start, Dur: time.Duration(i+1) * time.Millisecond, Err: i == 1, Keep: i == 2})
	}
	h := store.Handler()
	get := func(q, route, id, format string) *httptest.ResponseRecorder {
		v := url.Values{}
		for k, s := range map[string]string{"q": q, "route": route, "id": id, "format": format} {
			if s != "" {
				v.Set(k, s)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/tracez?"+v.Encode(), nil))
		return rec
	}
	// What the store's pages show whatever the query, so an input that
	// matches it proves nothing about escaping.
	own := get("", "", "", "").Body.String()
	for _, id := range []string{"trace-ok", "trace-err", "retrain-1"} {
		own += get("", "", id, "").Body.String()
	}
	for _, seed := range [][4]string{
		{"", "", "", ""},
		{"error", "", "", "json"},
		{"min_ms:1.5", "", "", "wire"},
		{"<script>alert(1)</script>", "", "", ""},
		{"\"><img src=x>", "/v1/<b>", "", "html"},
		{"", "/v1/predict", "", "json"},
		{"", "", "trace-ok", ""},
		{"", "", "trace-err", "json"},
		{"", "", "retrain-1", "chrome"},
		{"", "", "trace-ok", "wire"},
		{"", "", "<nope>", ""},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, q, route, id, format string) {
		rec := get(q, route, id, format)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("status %d", rec.Code)
		}
		body := rec.Body.String()
		if rec.Code != http.StatusOK {
			var e struct {
				Error APIError `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" ||
				rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("status %d, Content-Type %q, body %q is not a structured error", rec.Code, rec.Header().Get("Content-Type"), body)
			}
		}
		switch ct := rec.Header().Get("Content-Type"); {
		case strings.HasPrefix(ct, "application/json"):
			if !json.Valid([]byte(body)) {
				t.Fatalf("invalid JSON answer: %q", body)
			}
		case strings.HasPrefix(ct, "text/html"):
			if !strings.HasSuffix(body, "</html>\n") {
				t.Fatalf("page cut short: %q", body)
			}
			for _, in := range []string{q, route, id, format} {
				if strings.Contains(in, "<") && strings.Contains(body, in) && !strings.Contains(own, in) {
					t.Fatalf("input %q shown unescaped", in)
				}
			}
		}
	})
}
