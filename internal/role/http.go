// Package role is the scaffold the three HTTP roles share — predserve,
// predrouter and simworker: the structured JSON error and body
// helpers, the /metricz handler, the edge middleware that owns request
// identity and the sampling decision, Call, its outbound half and the
// only way one role sends a request to another, the timeout wrapper for
// routes whose work does not watch its context, and the listen → serve
// → drain lifecycle with its shared flags. API bodies are compact JSON.
// It depends only on internal/obs and internal/wirejson, so serve and
// cluster can both build on it.
package role

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"predperf/internal/obs"
	"predperf/internal/wirejson"
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
	return readJSON(w, r.Body, maxBytes, v)
}

// readJSON is ReadJSON on body.
func readJSON(w http.ResponseWriter, body io.ReadCloser, maxBytes int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBytes))
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

// ReadJSONFast is ReadJSON with a hand-written decoder in front. When
// the request declares a Content-Length within maxBytes, the body is
// read whole and offered to fast, which decodes the canonical shape it
// knows into v and reports true, or reports false and leaves v as it
// was. Every other body goes through ReadJSON: one fast refuses, on the
// same bytes; one whose read failed or fell short, on the bytes read and
// then the same error; one without a declared length; and an oversize
// one, whose malformed prefix still answers 400 bad_json. So the
// statuses and error bodies are ReadJSON's.
func ReadJSONFast(w http.ResponseWriter, r *http.Request, maxBytes int64, v any, fast func([]byte) bool) bool {
	n := r.ContentLength
	if n < 0 || n > maxBytes {
		return ReadJSON(w, r, maxBytes, v)
	}
	// Past the first 16 KiB the buffer grows only as bytes arrive, so a
	// client cannot make the server hold memory it has not sent.
	body := make([]byte, 0, min(n, 16<<10))
	var err error
	for int64(len(body)) < n && err == nil {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		var m int
		m, err = r.Body.Read(body[len(body):min(cap(body), int(n))])
		body = body[:len(body)+m]
	}
	if int64(len(body)) == n && (err == nil || err == io.EOF) {
		if fast(body) {
			return true
		}
		err = io.EOF
	}
	return readJSON(w, io.NopCloser(io.MultiReader(bytes.NewReader(body), errReader{err})), maxBytes, v)
}

// errReader replays the error that ended a body read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// PeekJSON is ReadJSON for a body the caller forwards verbatim: it
// reads the whole body (any read error answers 413 body_too_large),
// allows fields v does not declare, and returns the raw bytes.
func PeekJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) ([]byte, bool) {
	body, ok := readAll(w, r, maxBytes)
	if !ok {
		return nil, false
	}
	return body, decoded(w, decodeOne(json.NewDecoder(bytes.NewReader(body)), v))
}

// PeekModel is PeekJSON into a {"model"} envelope: it returns the raw
// body and its top-level "model". One validating scan finds it when the
// body has the canonical shape (wirejson.PeekString); every other body
// is decoded as PeekJSON decodes it, with the same errors.
func PeekModel(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, string, bool) {
	body, ok := readAll(w, r, maxBytes)
	if !ok {
		return nil, "", false
	}
	if model, ok := wirejson.PeekString(body, "model"); ok {
		return body, model, true
	}
	var env struct {
		Model string `json:"model"`
	}
	ok = decoded(w, decodeOne(json.NewDecoder(bytes.NewReader(body)), &env))
	return body, env.Model, ok
}

// readAll reads the whole body capped at maxBytes; any read error
// answers 413 body_too_large.
func readAll(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		WriteErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds the %d-byte limit", maxBytes)
		return nil, false
	}
	return body, true
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
