package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// Router-side observability: proxied request counts per route, failovers
// to the secondary shard, and per-shard proxy latency.
var (
	cRouterRequests  = obs.NewCounterVec("cluster.router_requests", "route")
	cRouterFailovers = obs.NewCounter("cluster.router_failovers")
	cRouterErrors    = obs.NewCounter("cluster.router_errors")
	hRouterProxy     = obs.NewHistogramVec("cluster.router_proxy_seconds", obs.DefLatencyBuckets, "shard")
)

// RouterOptions configures the shard router. Zero values take
// production defaults.
type RouterOptions struct {
	// Shards are the predserve base URLs fronted by this router
	// (scheme optional). Required, at least one.
	Shards []string
	// RequestTimeout bounds one proxied attempt against one shard
	// (default 30s; a search verifying by simulator is slow but
	// bounded by the shard's own deadline).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 1 MiB, matching
	// predserve's own cap).
	MaxBodyBytes int64
	// Client overrides the HTTP client.
	Client *http.Client
	// TraceSample is the edge head-sampling rate: the fraction of
	// client requests that record a distributed trace (0 means sample
	// everything, matching the old always-trace behaviour; negative
	// disables tracing). The decision is made once here and propagated
	// to shards and workers on the traceparent header.
	TraceSample float64
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if o.TraceSample == 0 {
		o.TraceSample = 1
	}
	return o
}

// routerModel is one row of the router's /v1/models: where the ring
// places a model and the generation its primary serves.
type routerModel struct {
	Name       string `json:"name"`
	Primary    string `json:"primary"`
	Secondary  string `json:"secondary"`
	Generation uint64 `json:"generation"`
}

// shardState is the router's health view of one shard, from the last
// answer the router got from it.
type shardState struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	LastErr string `json:"last_error,omitempty"`
	called  bool   // the router has called the shard at least once
}

// Router fronts a set of predserve shards: /v1/predict and /v1/search
// are consistent-hash routed to the shard owning the request's model,
// with failover to the ring's secondary on 5xx or transport errors.
// The router keeps no model state. Placement is a function of the shard
// list alone, GET /v1/models asks the shards on demand, and POST
// /v1/models/load, which goes to both of a model's shards, is what
// keeps its replicas alike. The router declares the request SLO
// pair ("router-latency", "router-availability") over its own edge, so
// it counts what its clients got: a failover the secondary served is
// one good request, a 503 no_shard one bad request, and the latency is
// the whole routed request.
type Router struct {
	opt     RouterOptions
	ring    *Ring
	start   time.Time
	http    *role.Server
	sampler obs.Sampler
	traces  *obs.TraceStore
	slo     *role.RequestSLO

	mu     sync.Mutex
	shards map[string]*shardState // url → health
}

// normalizeBaseURL canonicalizes a shard base URL: trimmed, no
// trailing slash, http:// assumed when no scheme is given.
func normalizeBaseURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s != "" && !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// NewRouter builds a router over RouterOptions.Shards.
func NewRouter(opt RouterOptions) (*Router, error) { return newRouter(opt, nil) }

// newRouter is NewRouter with the clock its SLO windows run on (nil
// means time.Now); tests step a fake one.
func newRouter(opt RouterOptions, clock obs.Clock) (*Router, error) {
	opt = opt.withDefaults()
	urls := make([]string, 0, len(opt.Shards))
	for _, s := range opt.Shards {
		urls = append(urls, normalizeBaseURL(s))
	}
	ring, err := NewRing(urls, DefaultReplicas)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		opt:     opt,
		ring:    ring,
		start:   time.Now(),
		sampler: obs.NewSampler(opt.TraceSample),
		traces:  obs.NewTraceStore(obs.DefTraceStoreSize),
		slo:     role.NewRequestSLO("router", "router", clock),
		shards:  map[string]*shardState{},
	}
	obs.NewGaugeFunc("obs.trace_sample_rate", rt.sampler.Rate)
	for _, u := range ring.Shards() {
		rt.shards[u] = &shardState{URL: u}
	}
	rt.http = role.NewServer(rt.Handler())
	return rt, nil
}

// Ring exposes the router's placement ring (read-only use).
func (rt *Router) Ring() *Ring { return rt.ring }

// Traces exposes the router's /tracez store.
func (rt *Router) Traces() *obs.TraceStore { return rt.traces }

// Handler returns the router API.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", rt.proxyByModel("predict"))
	mux.HandleFunc("/v1/search", rt.proxyByModel("search"))
	mux.HandleFunc("/v1/models", rt.handleModels)
	mux.HandleFunc("/v1/models/load", rt.handleLoad)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metricz", role.Metricz)
	mux.Handle("/tracez", rt.traces.Handler())
	mux.HandleFunc("/statusz", rt.handleStatusz)
	return role.Edge{Role: "router", Sampler: rt.sampler, Traces: rt.traces, SLO: rt.slo}.Wrap(mux)
}

// proxyByModel forwards a POST body to the shard owning its model, with
// failover to the secondary.
func (rt *Router) proxyByModel(route string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !role.RequireMethod(w, r, http.MethodPost) {
			return
		}
		cRouterRequests.With(route).Inc()
		// Only the model is read; the rest of the body is the shard's to
		// check, and is forwarded verbatim.
		body, model, ok := role.PeekModel(w, r, rt.opt.MaxBodyBytes)
		if !ok {
			cRouterErrors.Inc()
			return
		}
		if model == "" {
			cRouterErrors.Inc()
			role.WriteErr(w, http.StatusBadRequest, "bad_request", `"model" is required`)
			return
		}
		primary, secondary := rt.ring.Lookup(model)
		rt.forward(w, r, r.URL.Path, body, primary, secondary)
	}
}

// forward tries the primary shard, then — on a failed call (a
// transport error, a timeout, or an answer past role.MaxAnswerBytes) or
// a 5xx — the secondary. 4xx answers are authoritative and returned
// as-is: the shard understood the request and rejected it. A failover
// keeps the request's trace past the reservoir sample, so the router's
// /tracez holds every failed-over request with both hops.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, path string, body []byte, primary, secondary string) {
	a, err := rt.tryShard(r.Context(), primary, r.Method, path, body)
	if err != nil || a.Status >= 500 {
		if secondary != primary {
			cRouterFailovers.Inc()
			role.ExchangeOf(w).Keep = true
			a2, err2 := rt.tryShard(r.Context(), secondary, r.Method, path, body)
			if err2 == nil && a2.Status < 500 {
				relay(w, a2)
				return
			}
		}
		if err != nil {
			cRouterErrors.Inc()
			w.Header().Set("Retry-After", RetryAfterSeconds(rt.opt.RequestTimeout/10))
			role.WriteErr(w, http.StatusServiceUnavailable, "no_shard",
				"no shard could serve the request: %v", err)
			return
		}
	}
	relay(w, a)
}

// tryShard runs one proxied attempt through role.Call, under a
// "router.forward" span that the shard's grafted forest hangs from. A
// non-nil error means the shard gave no usable answer, and marks it
// unhealthy.
func (rt *Router) tryShard(ctx context.Context, shard, method, path string, body []byte) (role.Answer, error) {
	ctx, endHop := obs.StartSpanArgs(ctx, "router.forward", "shard", shard, "path", path)
	a, err := role.Call(ctx, rt.opt.Client, method, shard+path, body, rt.opt.RequestTimeout)
	if err != nil {
		rt.markShard(shard, false, err)
		endHop("outcome", "no_answer")
		return role.Answer{}, fmt.Errorf("shard %s: %w", shard, err)
	}
	hRouterProxy.With(shard).Observe(a.RTT.Seconds())
	rt.markShard(shard, a.Status < 500, nil)
	endHop(a.SpanArgs("status", strconv.Itoa(a.Status))...)
	return a, nil
}

// relay copies a shard's answer to the client, preserving status and
// content type (the request ID header is already set by middleware).
func relay(w http.ResponseWriter, a role.Answer) {
	if ct := a.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := a.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(a.Status)
	w.Write(a.Body)
}

func (rt *Router) markShard(url string, healthy bool, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.shards[url]
	if !ok {
		return
	}
	st.Healthy, st.called = healthy, true
	if err != nil {
		st.LastErr = err.Error()
	} else if healthy {
		st.LastErr = ""
	}
}

// ---- /v1/models: the shards' listings, asked on demand ----

// shardModel is the subset of a shard's /v1/models row the router needs.
type shardModel struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
}

// fetchModels asks one shard for its model listing.
func (rt *Router) fetchModels(ctx context.Context, shard string) ([]shardModel, error) {
	a, err := rt.tryShard(ctx, shard, http.MethodGet, "/v1/models", nil)
	if err != nil {
		return nil, err
	}
	if a.Status != http.StatusOK {
		return nil, fmt.Errorf("shard %s: /v1/models answered %d", shard, a.Status)
	}
	var out struct {
		Models []shardModel `json:"models"`
	}
	if err := json.Unmarshal(a.Body, &out); err != nil {
		return nil, fmt.Errorf("shard %s: bad /v1/models body: %w", shard, err)
	}
	return out.Models, nil
}

// handleModels asks every shard for its listing and answers each model
// its ring primary lists, with the primary's generation. A shard whose
// listing fails is marked unhealthy and its models are left out. The
// calls are the router's own traffic, so no shard traces them, even
// when the client's request is traced.
func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	cRouterRequests.With("models").Inc()
	ctx := role.Untraced(r.Context())
	shards := rt.ring.Shards()
	lists := make([][]shardModel, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			models, err := rt.fetchModels(ctx, shard)
			if err != nil {
				rt.markShard(shard, false, err)
			}
			lists[i] = models
		}()
	}
	wg.Wait()
	models := []routerModel{}
	for i, shard := range shards {
		for _, m := range lists[i] {
			if primary, secondary := rt.ring.Lookup(m.Name); shard == primary {
				models = append(models, routerModel{m.Name, primary, secondary, m.Generation})
			}
		}
	}
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })
	role.WriteJSON(w, http.StatusOK, map[string]any{"models": models})
}

// handleLoad fans a load request to every shard. A shard registers a
// file under the model name stored in it, which the router cannot know
// without reading the file, and predictions route by that name; so
// every shard loads every file, and whichever pair the name maps to
// holds the model. It is the only way the router changes a replica: a
// load sent to one shard directly changes that shard only. A shard that
// gives no answer does not stop the fan-out, so the live shards still
// agree; the load then answers 503 no_shard naming every such shard. A
// shard's non-200 answer stops it and is relayed verbatim.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodPost) {
		return
	}
	cRouterRequests.With("load").Inc()
	var req struct {
		Path string `json:"path"`
		Dir  string `json:"dir"`
	}
	body, ok := role.PeekJSON(w, r, rt.opt.MaxBodyBytes, &req)
	if !ok {
		cRouterErrors.Inc()
		return
	}
	if req.Path == "" && req.Dir == "" {
		cRouterErrors.Inc()
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `"path" or "dir" is required`)
		return
	}
	shards := rt.ring.Shards()
	var last role.Answer
	var failed []string
	for _, shard := range shards {
		a, err := rt.tryShard(r.Context(), shard, http.MethodPost, "/v1/models/load", body)
		if err != nil {
			failed = append(failed, err.Error())
			continue
		}
		if a.Status != http.StatusOK {
			relay(w, a) // surface the first rejection verbatim
			return
		}
		last = a
	}
	if len(failed) > 0 {
		cRouterErrors.Inc()
		w.Header().Set("Retry-After", RetryAfterSeconds(rt.opt.RequestTimeout/10))
		role.WriteErr(w, http.StatusServiceUnavailable, "no_shard", "shard load failed on %d of %d shards: %s",
			len(failed), len(shards), strings.Join(failed, "; "))
		return
	}
	relay(w, last)
}

// ---- health + status ----

func (rt *Router) snapshotShards() []shardState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]shardState, 0, len(rt.shards))
	for _, st := range rt.shards {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	role.WriteJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"role":       "predrouter",
		"uptime_sec": int64(time.Since(rt.start).Seconds()),
		"shards":     rt.snapshotShards(),
	})
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	shards := obs.Section{Title: "Shards", Headers: []string{"shard", "health"},
		Empty: "no shards configured"}
	for _, st := range rt.snapshotShards() {
		health := obs.Cell{Text: "no answer yet"}
		if st.called {
			health = obs.Verdict(!st.Healthy, "unhealthy: "+st.LastErr, "healthy")
		}
		shards.Rows = append(shards.Rows, []obs.Cell{{Text: st.URL}, health})
	}
	statusPage("predrouter", "predrouter", rt.start, [][2]string{
		{"shards", strconv.Itoa(len(rt.ring.Shards()))},
		{"failovers", strconv.FormatInt(cRouterFailovers.Value(), 10)},
		{"trace sample rate", strconv.FormatFloat(rt.sampler.Rate(), 'g', 4, 64)},
	}, rt.slo.Section(), shards).Write(w)
}

// statusPage is the /statusz of the router and the worker: the role and
// its uptime, a summary, its tables, and links to the JSON views.
func statusPage(title, role string, start time.Time, summary [][2]string, sections ...obs.Section) obs.Page {
	return obs.Page{
		Title:    title,
		Badge:    obs.Cell{Text: role, Class: "ok"},
		Status:   "up " + time.Since(start).Round(time.Second).String(),
		Summary:  summary,
		Sections: sections,
		Links:    []obs.Cell{{Href: "/healthz"}, {Href: "/metricz"}, {Href: "/metricz?format=prom"}},
	}
}

// Serve accepts connections on l until Shutdown.
func (rt *Router) Serve(l net.Listener) error { return rt.http.Serve(l) }

// Shutdown drains in-flight requests, waiting at most deadline.
func (rt *Router) Shutdown(deadline time.Duration) error { return rt.http.Shutdown(deadline) }
