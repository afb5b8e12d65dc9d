// Package serve is the HTTP inference layer over fitted CPI models: it
// turns models persisted by core.Model.Save into a long-running service
// so the paper's fast surrogate actually serves predictions instead of
// living and dying inside the process that built it.
//
// The server is stdlib-only (net/http) and exposes a small JSON API:
//
//	POST /v1/predict      single config or batch against a named model
//	POST /v1/search       model-guided design-space search (search.Minimize)
//	GET  /v1/models       list the model registry
//	POST /v1/models/load  hot-load a persisted model into the registry
//	GET  /healthz         liveness + registry size
//	GET  /metricz         internal/obs counters and spans as JSON
//	GET  /tracez          tail-sampled distributed trace store
//
// Production behaviors live here rather than in the CLI: an RWMutex
// model registry with lazy per-model simulator evaluators, a bounded
// LRU prediction cache keyed on (model, quantized config), vectorized
// batch evaluation (one blocked design-matrix pass per batch via
// rbf.Compiled, chunked over the internal/par pool for large batches),
// micro-batch coalescing of concurrent single predictions (flushed as
// soon as the queue is empty, so a lone request never waits),
// request-size limits, per-request deadlines, structured JSON errors,
// and graceful shutdown (drain with a deadline).
//
// Every incoming configuration is validated and then clamped/quantized
// through the model's design.Space exactly as at training time
// (Decode∘Encode), so the served prediction always describes a machine
// the space can express — and for on-grid configurations it is
// bit-identical to an in-process Model.PredictConfig call.
package serve

import (
	"io"
	"net"
	"net/http"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/obs"
	"predperf/internal/role"
)

// Request-path counters and spans (internal/obs). serve.predicts counts
// /v1/predict requests, serve.batch_points every configuration scored
// (a batch of 64 adds 64), and the cache pair says how often the LRU
// absorbed a prediction.
var (
	cPredicts   = obs.NewCounter("serve.predicts")
	cBatchPts   = obs.NewCounter("serve.batch_points")
	cCacheHits  = obs.NewCounter("serve.cache_hits")
	cCacheMiss  = obs.NewCounter("serve.cache_misses")
	cSearches   = obs.NewCounter("serve.searches")
	cModelLoads = obs.NewCounter("serve.model_loads")
)

const (
	// cacheSize bounds the LRU prediction cache in entries.
	cacheSize = 4096
	// maxBatch bounds the number of configurations in one predict
	// request.
	maxBatch = 4096
)

// Options configures a Server. Zero values take production defaults.
type Options struct {
	// MaxBodyBytes bounds the size of a request body (default 1 MiB).
	MaxBodyBytes int64
	// Timeout is the per-request deadline (default 30s). It bounds a
	// single prediction's wait in the coalescer and a whole /v1/search;
	// either answers a structured 503 timeout when it passes. The other
	// routes do bounded in-process work and wait on nothing.
	Timeout time.Duration
	// ModelDir resolves relative paths in /v1/models/load and is
	// scanned for *.json models by LoadDir.
	ModelDir string
	// AccessLog receives one JSON line per completed request (nil
	// disables access logging). Writes are serialized by the server.
	AccessLog io.Writer
	// Clock injects a time source for windowed metrics, SLO burn rates,
	// alert timestamps, and shadow drift windows (default time.Now).
	// Tests drive a fake clock through it.
	Clock obs.Clock
	// ShadowFraction is the fraction of served predictions re-checked on
	// the cycle-level simulator (0 disables shadow monitoring, 1 checks
	// everything). Sampling is a deterministic hash of the (model,
	// quantized config) pair.
	ShadowFraction float64
	// ShadowErrPct is the windowed mean percent error above which a
	// model counts as drifting (default 25; negative keeps the error
	// histograms but never trips readiness).
	ShadowErrPct float64
	// SimPool, when non-nil, fans every simulator consumer — search
	// shortlist verification and shadow re-simulation — out to a
	// cluster of sim workers instead of simulating on the serving host.
	// Workers are deterministic, so results are bit-identical to local
	// simulation. cmd/predserve builds the pool from -sim-workers.
	SimPool *cluster.Pool
	// TraceSample is the head-sampling rate for distributed traces: the
	// fraction of edge requests that record a request-scoped trace
	// (default 1.0, trace everything; negative disables tracing). The
	// decision is made once at the edge — an inbound traceparent header
	// carries it downstream instead.
	TraceSample float64
	// TraceStoreSize bounds each retention class of the /tracez store
	// (errors, kept outliers, reservoir sample) in traces (default 64).
	TraceStoreSize int
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.ShadowErrPct == 0 {
		o.ShadowErrPct = 25
	}
	if o.TraceSample == 0 {
		o.TraceSample = 1
	}
	if o.TraceStoreSize <= 0 {
		o.TraceStoreSize = 64
	}
	return o
}

// Server serves predictions from a registry of loaded models.
type Server struct {
	opt    Options
	reg    *Registry
	cache  *lru
	access *accessLog
	http   *role.Server

	// Time-aware observability: the clock every window/SLO/alert runs
	// on, per-route sliding-window views, the request SLO pair the edge
	// feeds, the alert log, and the shadow drift monitor.
	clock    obs.Clock
	start    time.Time
	wRoutes  map[string]*obs.WindowedHistogram
	slo      *role.RequestSLO
	alerts   *obs.AlertSet
	shadow   *shadowMonitor
	coalesce *coalescer

	// Distributed tracing: the edge head-sampler and the tail-retention
	// trace store behind /tracez.
	sampler obs.Sampler
	traces  *obs.TraceStore
}

// New builds a Server with an empty registry. Load models through
// Registry before (or while — the registry is hot-loadable) serving.
// Serving internals that are otherwise invisible — prediction-cache
// entries and capacity, registry size — are exported as callback gauges;
// the obs registry is process-global, so the most recently constructed
// Server owns these series.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:    opt,
		reg:    NewRegistry(opt.ModelDir),
		cache:  newLRU(cacheSize),
		access: newAccessLog(opt.AccessLog),
		clock:  opt.Clock,
	}
	s.sampler = obs.NewSampler(opt.TraceSample)
	s.traces = obs.NewTraceStore(opt.TraceStoreSize)
	obs.NewGaugeFunc("obs.trace_sample_rate", s.sampler.Rate)
	if opt.SimPool != nil {
		s.reg.SetEvalFactory(func(benchmark string, traceLen int, metric core.Metric) (core.Evaluator, error) {
			return cluster.NewRemoteEvaluator(opt.SimPool, benchmark, traceLen, metric), nil
		})
	}
	s.start = s.clock()
	obs.NewGaugeFunc("serve.cache_entries", func() float64 { return float64(s.cache.Len()) })
	obs.NewGaugeFunc("serve.cache_capacity", func() float64 { return float64(s.cache.Cap()) })
	obs.NewGaugeFunc("serve.registry_models", func() float64 { return float64(s.reg.Len()) })

	// Per-route sliding-window views for the /statusz latency tables
	// (latest-wins, like the gauges above: the most recent Server owns
	// the clock).
	s.wRoutes = map[string]*obs.WindowedHistogram{}
	for route := range routes {
		s.wRoutes[route] = obs.WindowHistogramIn(hRequests, s.clock, route)
	}
	s.wRoutes["other"] = obs.WindowHistogramIn(hRequests, s.clock, "other")

	// The request SLO pair, Google SRE multi-window burn style,
	// registered globally so run reports carry their states.
	s.slo = role.NewRequestSLO("serve", "", s.clock)
	s.alerts = obs.NewAlertSet(s.clock)
	s.shadow = newShadowMonitor(opt, s.clock)
	s.coalesce = newCoalescer(coalesceMax, coalesceQueue, s.predictBatch)

	s.http = role.NewServer(s.Handler())
	return s
}

// Registry exposes the model registry for loading and inspection.
func (s *Server) Registry() *Registry { return s.reg }

// Traces exposes the /tracez trace store (tests and embedding callers).
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// Handler returns the full API handler. Outermost is the shared
// role.Edge (request ID, sampling decision, request-scoped trace,
// /tracez retention, the request SLO pair; a router-fronted hop returns
// its spans on the X-Trace-Spans trailer), then serve's metrics layer
// (per-route histograms, response counters, in-flight gauge, access
// log), then the mux. Only /v1/search sits behind
// role.WithTimeout, because a simulator-verified search does not watch
// its context; a single prediction bounds its own coalescer wait, so
// every other route runs on the connection's goroutine. Timed-out
// requests are still logged and measured with their real 503.
// Request-size limits are applied per route by the body reader.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/alertz", s.handleAlertz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metricz", role.Metricz)
	mux.Handle("/tracez", s.traces.Handler())
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/load", s.handleModelsLoad)
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.Handle("/v1/search", role.WithTimeout(http.HandlerFunc(s.handleSearch), s.opt.Timeout, "server"))
	edge := role.Edge{Role: "serve", Sampler: s.sampler, Traces: s.traces, SLO: s.slo, Route: routeLabel}
	return edge.Wrap(s.withMetrics(mux))
}

// Serve accepts connections on l until Shutdown. A server that was shut
// down cleanly returns nil rather than http.ErrServerClosed.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown drains in-flight requests, waiting at most deadline before
// giving up on stragglers, then stops the coalescer dispatcher (which
// evaluates everything already queued), then the shadow workers (which
// finish their in-flight simulations) — in that order, because the
// coalescer's final flush feeds the shadow queue.
// New connections are refused immediately. Handlers that outlive the
// drain deadline remain safe: enqueueing into a stopped coalescer
// answers a structured 503, and offering to the stopped shadow monitor
// drops the sample and counts it.
func (s *Server) Shutdown(deadline time.Duration) error {
	err := s.http.Shutdown(deadline)
	s.coalesce.stop()
	s.shadow.stop()
	return err
}
