// Package role is the scaffold the three HTTP roles share — predserve,
// predrouter and simworker: the structured JSON error and body
// helpers, the /metricz handler, the edge middleware that owns request
// identity and the sampling decision, the timeout wrapper for routes
// whose work does not watch its context, the sparkline the dashboards
// draw, and the listen → serve → drain lifecycle with its shared flags.
// API bodies are compact JSON. It depends only on internal/obs, so
// serve and cluster can both build on it.
package role

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"strings"
	"time"

	"predperf/internal/obs"
)

// RequestIDHeader is the header every role reads, echoes, and forwards;
// it doubles as the request's trace ID.
const RequestIDHeader = "X-Request-Id"

// APIError is the structured error body: {"error":{"code","message"}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// WriteJSON writes v as compact JSON, one line, with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteErr writes a structured error with a formatted message.
func WriteErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, map[string]APIError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// RequireMethod answers 405 method_not_allowed, with an Allow header,
// unless r uses method. It returns false after writing the error.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		WriteErr(w, http.StatusMethodNotAllowed, "method_not_allowed",
			"%s requires %s, got %s", r.URL.Path, method, r.Method)
		return false
	}
	return true
}

// ReadJSON decodes a request body capped at maxBytes into v, straight
// from the stream. Unknown fields and any data after the JSON value are
// rejected. An oversize body answers 413 body_too_large, a malformed one
// 400 bad_json; ReadJSON returns false after writing the error.
func ReadJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	err := decodeOne(dec, v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds the %d-byte limit", tooLarge.Limit)
		return false
	}
	return decoded(w, err)
}

// PeekJSON is ReadJSON for a body the caller forwards verbatim: it
// reads the whole body (any read error answers 413 body_too_large),
// allows fields v does not declare, and returns the raw bytes.
func PeekJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		WriteErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds the %d-byte limit", maxBytes)
		return nil, false
	}
	return body, decoded(w, decodeOne(json.NewDecoder(bytes.NewReader(body)), v))
}

// decodeOne decodes exactly one JSON value: a second value (or any
// non-space byte) after the first is malformed input, not something to
// ignore.
func decodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return err
	}
}

// decoded answers 400 bad_json for a decode error and reports whether
// there was none.
func decoded(w http.ResponseWriter, err error) bool {
	if err != nil {
		WriteErr(w, http.StatusBadRequest, "bad_json", "decoding request: %v", err)
		return false
	}
	return true
}

// Metricz serves the process's obs registry: the JSON snapshot by
// default, Prometheus text exposition with ?format=prom.
func Metricz(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "prom", "prometheus":
		w.Header().Set("Content-Type", obs.PromContentType)
		obs.WritePrometheus(w)
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		obs.Snapshot().Write(w)
	default:
		WriteErr(w, http.StatusBadRequest, "bad_request",
			`unknown metrics format %q (want "json" or "prom")`, format)
	}
}

// WithTimeout bounds h with a per-request deadline; who names the role
// in the 503 timeout body ("server", "worker"). It runs h on a goroutine
// of its own (http.TimeoutHandler), so it is for work that does not
// watch its context, such as a simulation: predserve wraps only
// /v1/search, simworker its whole mux. http.TimeoutHandler writes the
// body without a Content-Type, which Go's sniffer would label
// text/plain, so the JSON Content-Type is pre-set on the real response
// writer; handlers on the non-timeout path set their own.
func WithTimeout(h http.Handler, d time.Duration, who string) http.Handler {
	th := http.TimeoutHandler(h, d,
		`{"error":{"code":"timeout","message":"request exceeded the `+who+`'s per-request deadline"}}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		th.ServeHTTP(w, r)
	})
}

// Sparkline renders a per-bucket series as a 150×24 inline SVG
// polyline scaled to the series max. An all-zero series renders a flat
// baseline, an empty one nothing.
func Sparkline(series []float64) template.HTML {
	const w, h = 150, 24
	if len(series) == 0 {
		return ""
	}
	maxV := 0.0
	for _, v := range series {
		maxV = max(maxV, v)
	}
	var pts strings.Builder
	n := len(series)
	for i, v := range series {
		x := float64(w)
		if n > 1 {
			x = float64(i) / float64(n-1) * w
		}
		y := float64(h - 1)
		if maxV > 0 {
			y = float64(h-1) - v/maxV*float64(h-2)
		}
		if i > 0 {
			pts.WriteByte(' ')
		}
		fmt.Fprintf(&pts, "%.1f,%.1f", x, y)
	}
	return template.HTML(fmt.Sprintf(
		`<svg class="spark" width="%d" height="%d" viewBox="0 0 %d %d"><polyline fill="none" stroke="#4a7dcf" stroke-width="1.2" points="%s"/></svg>`,
		w, h, w, h, pts.String()))
}
