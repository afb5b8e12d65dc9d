package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// Request-path observability: per-route latency histograms, per-route ×
// status-code response totals, and an in-flight gauge. Routes are
// normalized to the fixed route set (unknown paths collapse to "other")
// so label cardinality stays bounded no matter what clients request.
var (
	hRequests  = obs.NewHistogramVec("serve.http_request_seconds", obs.DefLatencyBuckets, "route")
	cResponses = obs.NewCounterVec("serve.http_responses", "route", "code")
	gInflight  = obs.NewGauge("serve.inflight_requests")
)

// routes is the fixed label set for per-route metrics.
var routes = map[string]struct{}{
	"/healthz":        {},
	"/readyz":         {},
	"/alertz":         {},
	"/statusz":        {},
	"/metricz":        {},
	"/tracez":         {},
	"/v1/models":      {},
	"/v1/models/load": {},
	"/v1/predict":     {},
	"/v1/search":      {},
}

// routeLabel normalizes a request path to a bounded label value.
func routeLabel(path string) string {
	if _, ok := routes[path]; ok {
		return path
	}
	return "other"
}

// accessLog serializes JSON-lines access entries to one writer, one
// Write per line, so a crash loses no line already logged. A mutex keeps
// concurrent requests from interleaving partial lines.
type accessLog struct {
	mu   sync.Mutex
	w    io.Writer
	enc  *json.Encoder // lines appendAccessEntry refuses
	line []byte        // appendAccessEntry's buffer, reused under mu
}

func newAccessLog(w io.Writer) *accessLog {
	if w == nil {
		return nil
	}
	return &accessLog{w: w, enc: json.NewEncoder(w)}
}

// accessEntry is one access-log line.
type accessEntry struct {
	Time      string  `json:"time"` // RFC 3339 with milliseconds
	ID        string  `json:"id"`   // X-Request-Id (received or assigned)
	Remote    string  `json:"remote,omitempty"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Status    int     `json:"status"`
	Bytes     int64   `json:"bytes"`
	DurMS     float64 `json:"dur_ms"`
	UserAgent string  `json:"user_agent,omitempty"`
}

func (l *accessLog) log(e accessEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	line, ok := appendAccessEntry(l.line[:0], &e)
	if !ok {
		l.enc.Encode(e)
		return
	}
	l.line = line
	l.w.Write(line)
}

// withMetrics is serve's own layer inside the shared role.Edge (see
// Server.Handler): the in-flight gauge and, once the inner chain
// returns, the per-route latency histogram (with a trace exemplar when
// traced), the route × code response counter, the access-log line, and
// the slow-outlier flag that makes the edge keep the trace. It wraps
// the mux, and with it /v1/search's timeout wrapper, so a timed-out
// search is measured and logged with its real 503 and its full
// duration.
func (s *Server) withMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gInflight.Inc()
		defer gInflight.Dec()
		next.ServeHTTP(w, r)

		x := role.ExchangeOf(w)
		d := time.Since(x.Start)
		route := routeLabel(r.URL.Path)
		if tr := obs.TraceFrom(r.Context()); tr != nil {
			hRequests.With(route).ObserveWithExemplar(d.Seconds(), tr.ID())
			x.Keep = s.slowOutlier(route, d)
		} else {
			hRequests.With(route).Observe(d.Seconds())
		}
		cResponses.With(route, strconv.Itoa(x.Status)).Inc()
		s.access.log(accessEntry{
			Time:      x.Start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
			ID:        obs.RequestIDFrom(r.Context()),
			Remote:    r.RemoteAddr,
			Method:    r.Method,
			Path:      r.URL.Path,
			Status:    x.Status,
			Bytes:     x.Bytes,
			DurMS:     float64(d.Nanoseconds()) / 1e6,
			UserAgent: r.UserAgent(),
		})
	})
}

// slowOutlier flags a latency-quantile outlier for tail retention: a
// request slower than its route's recent windowed p99, once the window
// holds enough samples to make the quantile meaningful.
func (s *Server) slowOutlier(route string, d time.Duration) bool {
	w, ok := s.wRoutes[route]
	if !ok {
		return false
	}
	st := w.StatsOver(5 * time.Minute)
	return st.Count >= 20 && d.Seconds() > st.P99
}
