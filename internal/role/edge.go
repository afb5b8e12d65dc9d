package role

import (
	"context"
	"net/http"
	"time"

	"predperf/internal/obs"
)

// Edge is the outermost middleware of every role. For each request it
//
//   - validates the inbound X-Request-Id (obs.ValidRequestID), replaces
//     anything else with a generated ID, and echoes the result;
//   - decides whether the request records a trace: an inbound
//     traceparent carries the edge's decision and is authoritative,
//     otherwise the role's own sampler decides;
//   - opens the "<Role>.request" root span for a locally sampled
//     request; a remote-sampled hop records no root, so its forest
//     grafts under the caller's hop span, and owes the caller that
//     forest (see SpanTrailer);
//   - records the response status and size (ExchangeOf), and
//   - offers the finished trace to the role's /tracez store.
type Edge struct {
	// Role names the root span, "<Role>.request".
	Role string
	// Sampler decides requests that arrive without a traceparent.
	Sampler obs.Sampler
	// Traces receives every finished trace (nil keeps none).
	Traces *obs.TraceStore
	// SpanTrailer returns a remote-sampled hop's span forest on the
	// X-Trace-Spans trailer, so the body a router relays is the same with
	// tracing on or off. Without it the handler returns the forest in its
	// own response body, and SpanReturnWanted tells it when.
	SpanTrailer bool
	// Route maps a request path to the bounded label the trace store and
	// the root span's "route" attribute carry. Without it both carry the
	// path itself, the span as its "path" attribute.
	Route func(path string) string
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

type spanReturnKey struct{}

// SpanReturnWanted reports whether the request is a remote-sampled hop
// whose caller expects the span forest back in the response body (an
// Edge without SpanTrailer).
func SpanReturnWanted(ctx context.Context) bool {
	b, _ := ctx.Value(spanReturnKey{}).(bool)
	return b
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
		if sampled {
			tid := id
			if remote && sc.TraceID != "" {
				tid = sc.TraceID
			}
			tr = obs.NewTrace(tid)
			ctx = obs.WithTrace(ctx, tr)
			switch {
			case !remote:
				ctx, endRoot = obs.StartSpanCtx(ctx, e.Role+".request", attr, route)
			case e.SpanTrailer:
				// Declared before any write; the value is set once the
				// chain has finished.
				w.Header().Add("Trailer", obs.SpanTrailerHeader)
			default:
				ctx = context.WithValue(ctx, spanReturnKey{}, true)
			}
		}
		next.ServeHTTP(rec, r.WithContext(ctx))
		endRoot()
		if tr == nil {
			return
		}
		if remote && e.SpanTrailer {
			w.Header().Set(obs.SpanTrailerHeader, obs.EncodeSpans(tr.Export(obs.MaxWireSpans)))
		}
		x := rec.x
		e.Traces.Add(tr, obs.TraceMeta{
			ID: tr.ID(), Kind: "request", Route: route, Status: x.Status,
			Start: x.Start, Dur: time.Since(x.Start), Err: x.Status >= 500, Keep: x.Keep,
		})
	})
}
