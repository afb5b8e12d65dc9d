package role

import (
	"net/http"
	"time"

	"predperf/internal/obs"
)

// Edge is the outermost middleware of every role. For each request it
//
//   - validates the inbound X-Request-Id (obs.ValidRequestID), replaces
//     anything else with a generated ID, and echoes the result;
//   - decides whether the request records a trace: a request to the ops
//     surface (IsOps) never does, whatever its traceparent says; for any
//     other, an inbound traceparent carries the edge's decision and is
//     authoritative, otherwise the role's own sampler decides;
//   - opens the "<Role>.request" root span for a locally sampled
//     request; a remote-sampled hop records no root, so its forest
//     grafts under the caller's hop span, and returns that forest on
//     the X-Trace-Spans trailer, which Call reads. A trailer leaves the
//     body the same with tracing on or off, so a router relays it as is.
//     A forest past obs.MaxSpanTrailerBytes is cut, ending in a span
//     that counts what was dropped, so tracing never fails the hop;
//   - records the response status and size (ExchangeOf);
//   - feeds the role's request SLO pair (RequestSLO), and
//   - offers the finished trace to the role's /tracez store.
type Edge struct {
	// Role names the root span, "<Role>.request".
	Role string
	// Sampler decides requests that arrive without a traceparent.
	Sampler obs.Sampler
	// Traces receives every finished trace (nil keeps none).
	Traces *obs.TraceStore
	// SLO receives every answered request (nil for a role that declares
	// no request SLO).
	SLO *RequestSLO
	// Route maps a request path to the bounded label the trace store and
	// the root span's "route" attribute carry. Without it both carry the
	// path itself, the span as its "path" attribute.
	Route func(path string) string
}

// IsOps reports whether path is on the ops surface the roles share:
// the probes, metrics, trace and status pages. Probes and scrapes arrive
// every few seconds, so Edge never traces them, and RequestSLO leaves
// them out.
func IsOps(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/alertz", "/metricz", "/tracez", "/statusz":
		return true
	}
	return false
}

// Exchange is what the edge records about one response. An inner layer
// reads it, and may set Keep, through ExchangeOf.
type Exchange struct {
	Start  time.Time // when the edge received the request
	Status int       // response status (200 until a handler writes another)
	Bytes  int64     // response body bytes written
	Keep   bool      // retain the trace past the reservoir sample
}

// recorder is the response writer the edge hands down: it fills the
// request's Exchange as the response is written.
type recorder struct {
	http.ResponseWriter
	x     Exchange
	wrote bool
}

func (w *recorder) WriteHeader(code int) {
	if !w.wrote {
		w.x.Status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recorder) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.x.Bytes += int64(n)
	return n, err
}

// ExchangeOf returns the exchange behind w, which must be the response
// writer an Edge passed down.
func ExchangeOf(w http.ResponseWriter) *Exchange {
	return &w.(*recorder).x
}

// Wrap returns next behind the edge middleware.
func (e Edge) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &recorder{ResponseWriter: w, x: Exchange{Start: time.Now(), Status: http.StatusOK}}
		id := r.Header.Get(RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := obs.WithRequestID(r.Context(), id)
		attr, route := "path", r.URL.Path
		if e.Route != nil {
			attr, route = "route", e.Route(route)
		}

		sc, remote := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		sampled := sc.Sampled
		if !remote {
			sampled = e.Sampler.Sample(id)
		}
		var tr *obs.Trace
		endRoot := func() {}
		if sampled && !IsOps(r.URL.Path) {
			tid := id
			if remote && sc.TraceID != "" {
				tid = sc.TraceID
			}
			tr = obs.NewTrace(tid)
			ctx = obs.WithTrace(ctx, tr)
			if remote {
				// Declared before any write; the value is set once the
				// chain has finished.
				w.Header().Add("Trailer", obs.SpanTrailerHeader)
			} else {
				ctx, endRoot = obs.StartSpanCtx(ctx, e.Role+".request", attr, route)
			}
		}
		next.ServeHTTP(rec, r.WithContext(ctx))
		endRoot()
		if tr != nil && remote {
			w.Header().Set(obs.SpanTrailerHeader, obs.EncodeSpans(tr.Export()))
		}
		x := rec.x
		d := time.Since(x.Start)
		e.SLO.observe(r.URL.Path, x.Status, d)
		if tr == nil {
			return
		}
		e.Traces.Add(tr, obs.TraceMeta{
			ID: tr.ID(), Route: route, Status: x.Status,
			Start: x.Start, Dur: d, Err: x.Status >= 500, Keep: x.Keep,
		})
	})
}
