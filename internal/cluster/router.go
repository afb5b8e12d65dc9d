package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// Router-side observability: proxied request counts per route, failovers
// to the secondary shard, replica re-syncs triggered by generation
// bumps, and per-shard proxy latency.
var (
	cRouterRequests  = obs.NewCounterVec("cluster.router_requests", "route")
	cRouterFailovers = obs.NewCounter("cluster.router_failovers")
	cRouterErrors    = obs.NewCounter("cluster.router_errors")
	cRouterResyncs   = obs.NewCounter("cluster.router_resyncs")
	cRouterSyncErrs  = obs.NewCounter("cluster.router_sync_errors")
	hRouterProxy     = obs.NewHistogramVec("cluster.router_proxy_seconds", obs.DefLatencyBuckets, "shard")
)

// RouterOptions configures the shard router. Zero values take
// production defaults.
type RouterOptions struct {
	// Shards are the predserve base URLs fronted by this router
	// (scheme optional). Required, at least one.
	Shards []string
	// Replicas is the virtual-node count per shard on the ring
	// (default DefaultReplicas).
	Replicas int
	// RequestTimeout bounds one proxied attempt against one shard
	// (default 30s; a search verifying by simulator is slow but
	// bounded by the shard's own deadline).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 1 MiB, matching
	// predserve's own cap).
	MaxBodyBytes int64
	// SyncInterval is how often the router polls every shard's
	// /v1/models to refresh topology and detect generation bumps
	// (default 5s; <0 disables the background loop — tests call
	// SyncOnce directly).
	SyncInterval time.Duration
	// Client overrides the HTTP client.
	Client *http.Client
	// Workers are sim-worker base URLs joined to the fleet
	// observability plane (metrics federation on /fleetz and trace
	// search fan-out on /tracez); the router does not route client
	// traffic to them.
	Workers []string
	// TraceSample is the edge head-sampling rate: the fraction of
	// client requests that record a distributed trace (0 means sample
	// everything, matching the old always-trace behaviour; negative
	// disables tracing). The decision is made once here and propagated
	// to shards and workers on the traceparent header.
	TraceSample float64
	// FleetScrapeInterval is the fleet metrics-federation cadence
	// (default 5s; <0 disables the background loop — tests call
	// FleetScrapeOnce directly).
	FleetScrapeInterval time.Duration
	// FleetScrapeTimeout bounds one role's /metricz scrape or /tracez
	// fan-out query (default 2s).
	FleetScrapeTimeout time.Duration
	// TraceStoreSize caps each retention class of the /tracez store
	// (default 64).
	TraceStoreSize int
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.SyncInterval == 0 {
		o.SyncInterval = 5 * time.Second
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
	if o.FleetScrapeInterval == 0 {
		o.FleetScrapeInterval = 5 * time.Second
	}
	if o.FleetScrapeTimeout <= 0 {
		o.FleetScrapeTimeout = 2 * time.Second
	}
	if o.TraceStoreSize <= 0 {
		o.TraceStoreSize = 64
	}
	return o
}

// routerModel is the router's view of one model: where the ring places
// it, the generation last seen on its primary, and the generation the
// secondary replica was last synced to.
type routerModel struct {
	Name       string `json:"name"`
	Primary    string `json:"primary"`
	Secondary  string `json:"secondary"`
	Generation uint64 `json:"generation"`
	// Path is the model's file path as reported by the primary shard;
	// its base name is what a re-sync asks the secondary to load.
	Path string `json:"path,omitempty"`
	// SyncedGen is the primary generation at which the secondary was
	// last (re-)synced; SyncedGen < Generation means a hot swap has not
	// yet propagated.
	SyncedGen uint64 `json:"synced_generation"`
}

// shardState is the router's health view of one shard.
type shardState struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Models   int    `json:"models"`
	LastErr  string `json:"last_error,omitempty"`
	LastSync string `json:"last_sync,omitempty"`
}

// Router fronts a set of predserve shards: /v1/predict and /v1/search
// are consistent-hash routed to the shard owning the request's model,
// with failover to the ring's secondary on 5xx or transport errors.
// GET /v1/models merges every shard's listing; the generation vector
// piggybacked on those responses drives replica re-sync: when a model's
// primary generation bumps (hot load or retrain swap), the router asks
// the secondary shard to reload the model file so failover keeps
// serving current coefficients.
type Router struct {
	opt     RouterOptions
	ring    *Ring
	start   time.Time
	http    *role.Server
	sampler obs.Sampler
	traces  *obs.TraceStore
	fleet   *fleetPlane

	mu     sync.Mutex
	models map[string]*routerModel // name → placement + generations
	shards map[string]*shardState  // url → health
	synced map[string]uint64       // name → generation pushed to secondary

	loopCancel context.CancelFunc
	loopDone   chan struct{}
}

// normalizeBaseURL canonicalizes a shard/worker base URL: trimmed, no
// trailing slash, http:// assumed when no scheme is given.
func normalizeBaseURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s != "" && !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// NewRouter builds a router over RouterOptions.Shards.
func NewRouter(opt RouterOptions) (*Router, error) {
	opt = opt.withDefaults()
	urls := make([]string, 0, len(opt.Shards))
	for _, s := range opt.Shards {
		urls = append(urls, normalizeBaseURL(s))
	}
	ring, err := NewRing(urls, opt.Replicas)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		opt:     opt,
		ring:    ring,
		start:   time.Now(),
		sampler: obs.NewSampler(opt.TraceSample),
		traces:  obs.NewTraceStore(opt.TraceStoreSize),
		models:  map[string]*routerModel{},
		shards:  map[string]*shardState{},
		synced:  map[string]uint64{},
	}
	obs.NewGaugeFunc("obs.trace_sample_rate", rt.sampler.Rate)
	var workers []string
	for _, s := range opt.Workers {
		if u := normalizeBaseURL(s); u != "" {
			workers = append(workers, u)
		}
	}
	rt.fleet = newFleetPlane(ring.Shards(), workers, opt.Client, opt.FleetScrapeTimeout, nil)
	for _, u := range ring.Shards() {
		rt.shards[u] = &shardState{URL: u}
	}
	rt.http = role.NewServer(rt.Handler())
	return rt, nil
}

// FleetScrapeOnce runs one metrics-federation cycle (scrape every
// role, merge, evaluate fleet SLOs) and returns the merged fleet
// report. The background loop calls this on
// RouterOptions.FleetScrapeInterval; tests call it directly.
func (rt *Router) FleetScrapeOnce(ctx context.Context) *obs.Report {
	return rt.fleet.scrapeOnce(ctx)
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
	mux.HandleFunc("/tracez", rt.handleTracez)
	mux.HandleFunc("/fleetz", rt.handleFleetz)
	mux.HandleFunc("/statusz", rt.handleStatusz)
	return role.Edge{Role: "router", Sampler: rt.sampler, Traces: rt.traces}.Wrap(mux)
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

// forward tries the primary shard, then — on a transport error, a
// timeout, or a 5xx — the secondary. 4xx answers are authoritative and
// returned as-is: the shard understood the request and rejected it.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, path string, body []byte, primary, secondary string) {
	status, hdr, respBody, err := rt.tryShard(r.Context(), primary, r.Method, path, body)
	if err != nil || status >= 500 {
		if secondary != primary {
			cRouterFailovers.Inc()
			s2, h2, b2, err2 := rt.tryShard(r.Context(), secondary, r.Method, path, body)
			if err2 == nil && s2 < 500 {
				relay(w, s2, h2, b2)
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
	relay(w, status, hdr, respBody)
}

// tryShard runs one proxied attempt. A non-nil error means the shard
// never answered (transport failure or timeout). The hop carries the
// request identity and the edge's sampling bit on the traceparent
// header — an unsampled header actively suppresses trace allocation on
// the shard — and a sampled shard returns its span forest on the
// X-Trace-Spans trailer, which is grafted under this hop's span.
func (rt *Router) tryShard(ctx context.Context, shard, method, path string, body []byte) (int, http.Header, []byte, error) {
	tr := obs.TraceFrom(ctx)
	spanCtx, endHop := obs.StartSpanArgs(ctx, "router.forward", "shard", shard, "path", path)
	hopID := obs.SpanIDFrom(spanCtx)
	ctx, cancel := context.WithTimeout(spanCtx, rt.opt.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, shard+path, bytes.NewReader(body))
	if err != nil {
		endHop("outcome", "bad_request")
		return 0, nil, nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	id := obs.RequestIDFrom(ctx)
	if tr != nil {
		id = tr.ID()
	}
	if id != "" {
		req.Header.Set(role.RequestIDHeader, id)
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(obs.SpanContext{
			TraceID: id, ParentID: hopID, Sampled: tr != nil,
		}))
	}
	t0 := time.Now()
	resp, err := rt.opt.Client.Do(req)
	if err != nil {
		rt.markShard(shard, false, err)
		endHop("outcome", "transport_error")
		return 0, nil, nil, fmt.Errorf("shard %s: %w", shard, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		rt.markShard(shard, false, err)
		endHop("outcome", "read_error")
		return 0, nil, nil, fmt.Errorf("shard %s: reading response: %w", shard, err)
	}
	rtt := time.Since(t0)
	var offsetMS string
	if tr != nil {
		// Trailers are readable only after the body is fully consumed.
		if spans, derr := obs.DecodeSpans(resp.Trailer.Get(obs.SpanTrailerHeader)); derr == nil && len(spans) > 0 {
			off := obs.ClockOffset(t0, rtt, spans)
			tr.Graft(hopID, spans, off)
			offsetMS = strconv.FormatFloat(float64(off)/float64(time.Millisecond), 'f', 3, 64)
		}
	}
	hRouterProxy.With(shard).Observe(rtt.Seconds())
	rt.markShard(shard, resp.StatusCode < 500, nil)
	if offsetMS != "" {
		endHop("status", strconv.Itoa(resp.StatusCode), "clock_offset_ms", offsetMS)
	} else {
		endHop("status", strconv.Itoa(resp.StatusCode))
	}
	return resp.StatusCode, resp.Header, raw, nil
}

// relay copies a shard's answer to the client, preserving status and
// content type (the request ID header is already set by middleware).
func relay(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(status)
	w.Write(body)
}

func (rt *Router) markShard(url string, healthy bool, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.shards[url]
	if !ok {
		return
	}
	st.Healthy = healthy
	if err != nil {
		st.LastErr = err.Error()
	} else if healthy {
		st.LastErr = ""
	}
}

// ---- /v1/models: merged listing + generation-vector sync ----

// shardModel is the subset of a shard's /v1/models row the router needs:
// identity, placement key, generation, and the file to re-sync from.
type shardModel struct {
	Name       string `json:"name"`
	Benchmark  string `json:"benchmark,omitempty"`
	Generation uint64 `json:"generation"`
	Path       string `json:"path,omitempty"`
}

// fetchModels asks one shard for its model listing.
func (rt *Router) fetchModels(ctx context.Context, shard string) ([]shardModel, error) {
	status, _, body, err := rt.tryShard(ctx, shard, http.MethodGet, "/v1/models", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("shard %s: /v1/models answered %d", shard, status)
	}
	var out struct {
		Models []shardModel `json:"models"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("shard %s: bad /v1/models body: %w", shard, err)
	}
	return out.Models, nil
}

// SyncOnce polls every shard's /v1/models, rebuilds the router's model
// map, and pushes re-syncs: any model whose primary generation moved
// past what its secondary was last given gets a POST /v1/models/load on
// the secondary (shards share the models directory, so the base file
// name resolves on both). Returns the number of re-syncs issued.
func (rt *Router) SyncOnce(ctx context.Context) int {
	type shardList struct {
		shard  string
		models []shardModel
		err    error
	}
	lists := make([]shardList, len(rt.ring.Shards()))
	var wg sync.WaitGroup
	for i, shard := range rt.ring.Shards() {
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			models, err := rt.fetchModels(ctx, shard)
			lists[i] = shardList{shard: shard, models: models, err: err}
		}(i, shard)
	}
	wg.Wait()

	now := time.Now().UTC().Format(time.RFC3339)
	next := map[string]*routerModel{}
	rt.mu.Lock()
	for _, l := range lists {
		st := rt.shards[l.shard]
		if l.err != nil {
			cRouterSyncErrs.Inc()
			st.Healthy, st.LastErr = false, l.err.Error()
			continue
		}
		st.Healthy, st.LastErr, st.LastSync, st.Models = true, "", now, len(l.models)
		for _, m := range l.models {
			primary, secondary := rt.ring.Lookup(m.Name)
			if l.shard != primary {
				continue // only the owner's generation is authoritative
			}
			next[m.Name] = &routerModel{
				Name: m.Name, Primary: primary, Secondary: secondary,
				Generation: m.Generation, Path: m.Path,
				SyncedGen: rt.synced[m.Name],
			}
		}
	}
	var resync []*routerModel
	for _, m := range next {
		if m.Secondary != m.Primary && m.Path != "" && m.Generation > rt.synced[m.Name] {
			resync = append(resync, m)
		}
	}
	rt.models = next
	rt.mu.Unlock()

	done := 0
	for _, m := range resync {
		body, _ := json.Marshal(map[string]string{
			"path": filepath.Base(m.Path),
			"name": m.Name,
		})
		status, _, _, err := rt.tryShard(ctx, m.Secondary, http.MethodPost, "/v1/models/load", body)
		if err != nil || status != http.StatusOK {
			cRouterSyncErrs.Inc()
			continue
		}
		cRouterResyncs.Inc()
		done++
		rt.mu.Lock()
		rt.synced[m.Name] = m.Generation
		if cur, ok := rt.models[m.Name]; ok {
			cur.SyncedGen = m.Generation
		}
		rt.mu.Unlock()
	}
	return done
}

// loops runs the topology-sync and fleet-scrape tickers until ctx
// ends. A nil channel never fires, so a disabled loop costs nothing.
func (rt *Router) loops(ctx context.Context, syncC, fleetC <-chan time.Time) {
	defer close(rt.loopDone)
	for {
		select {
		case <-ctx.Done():
			return
		case <-syncC:
			rt.SyncOnce(ctx)
		case <-fleetC:
			rt.fleet.scrapeOnce(ctx)
		}
	}
}

func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	cRouterRequests.With("models").Inc()
	rt.SyncOnce(r.Context())
	rt.mu.Lock()
	models := make([]*routerModel, 0, len(rt.models))
	for _, m := range rt.models {
		cp := *m
		models = append(models, &cp)
	}
	rt.mu.Unlock()
	sort.Slice(models, func(i, j int) bool { return models[i].Name < models[j].Name })
	role.WriteJSON(w, http.StatusOK, map[string]any{"models": models})
}

// handleLoad fans a load request to the key's primary and secondary
// shards — both must host the model for failover to serve it.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodPost) {
		return
	}
	cRouterRequests.With("load").Inc()
	var req struct {
		Path string `json:"path"`
		Name string `json:"name"`
		Dir  string `json:"dir"`
	}
	body, ok := role.PeekJSON(w, r, rt.opt.MaxBodyBytes, &req)
	if !ok {
		cRouterErrors.Inc()
		return
	}
	// The ring key is the registry name the shard will assign: an
	// explicit name, else the file's base name. Directory loads have no
	// single key and fan out to every shard.
	var targets []string
	switch {
	case req.Dir != "":
		targets = rt.ring.Shards()
	case req.Path != "" || req.Name != "":
		key := req.Name
		if key == "" {
			key = strings.TrimSuffix(filepath.Base(req.Path), filepath.Ext(req.Path))
		}
		primary, secondary := rt.ring.Lookup(key)
		targets = []string{primary}
		if secondary != primary {
			targets = append(targets, secondary)
		}
	default:
		cRouterErrors.Inc()
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `"path" or "dir" is required`)
		return
	}
	var (
		lastStatus int
		lastHdr    http.Header
		lastBody   []byte
	)
	for _, shard := range targets {
		status, hdr, respBody, err := rt.tryShard(r.Context(), shard, http.MethodPost, "/v1/models/load", body)
		if err != nil {
			cRouterErrors.Inc()
			w.Header().Set("Retry-After", RetryAfterSeconds(rt.opt.RequestTimeout/10))
			role.WriteErr(w, http.StatusServiceUnavailable, "no_shard", "shard load failed: %v", err)
			return
		}
		lastStatus, lastHdr, lastBody = status, hdr, respBody
		if status != http.StatusOK {
			break // surface the first rejection verbatim
		}
	}
	relay(w, lastStatus, lastHdr, lastBody)
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

func (rt *Router) snapshotModels() []routerModel {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]routerModel, 0, len(rt.models))
	for _, m := range rt.models {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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
		"models":     rt.snapshotModels(),
	})
}

func (rt *Router) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	var shardRows []statuszRow
	for _, st := range rt.snapshotShards() {
		health := "healthy"
		if !st.Healthy {
			health = "unhealthy: " + st.LastErr
		}
		shardRows = append(shardRows, statuszRow{
			Cols: []string{st.URL, health, strconv.Itoa(st.Models), st.LastSync},
			Bad:  !st.Healthy,
		})
	}
	var modelRows []statuszRow
	for _, m := range rt.snapshotModels() {
		modelRows = append(modelRows, statuszRow{
			Cols: []string{
				m.Name, m.Primary, m.Secondary,
				strconv.FormatUint(m.Generation, 10), strconv.FormatUint(m.SyncedGen, 10),
			},
			Bad: m.Secondary != m.Primary && m.SyncedGen < m.Generation,
		})
	}
	renderStatusz(w, statuszPage{
		Title: "predrouter",
		Role:  "predrouter",
		Up:    time.Since(rt.start),
		Summary: []statuszKV{
			{"shards", strconv.Itoa(len(rt.ring.Shards()))},
			{"models placed", strconv.Itoa(len(rt.snapshotModels()))},
			{"failovers", strconv.FormatInt(cRouterFailovers.Value(), 10)},
			{"replica re-syncs", strconv.FormatInt(cRouterResyncs.Value(), 10)},
			{"trace sample rate", strconv.FormatFloat(rt.sampler.Rate(), 'g', 4, 64)},
			{"fleet targets", strconv.Itoa(len(rt.fleet.roleURLs("")))},
		},
		Sections: []statuszSection{
			{
				Title:   "Shards",
				Headers: []string{"shard", "health", "models", "last sync"},
				Rows:    shardRows,
				Empty:   "no shards configured",
			},
			{
				Title:   "Model placement",
				Headers: []string{"model", "primary", "secondary", "generation", "synced"},
				Rows:    modelRows,
				Empty:   "no models discovered yet — the sync loop polls every shard's /v1/models",
			},
		},
	})
}

// Serve accepts connections on l until Shutdown, running the
// background sync and fleet-scrape loops when their intervals are
// positive.
func (rt *Router) Serve(l net.Listener) error {
	needSync := rt.opt.SyncInterval > 0
	needFleet := rt.opt.FleetScrapeInterval > 0
	if needSync || needFleet {
		ctx, cancel := context.WithCancel(context.Background())
		rt.mu.Lock()
		rt.loopCancel = cancel
		rt.loopDone = make(chan struct{})
		rt.mu.Unlock()
		var syncC, fleetC <-chan time.Time
		if needSync {
			// Prime the topology before serving traffic so the first
			// /statusz is not empty.
			rt.SyncOnce(ctx)
			t := time.NewTicker(rt.opt.SyncInterval)
			defer t.Stop()
			syncC = t.C
		}
		if needFleet {
			rt.fleet.scrapeOnce(ctx)
			t := time.NewTicker(rt.opt.FleetScrapeInterval)
			defer t.Stop()
			fleetC = t.C
		}
		go rt.loops(ctx, syncC, fleetC)
	}
	return rt.http.Serve(l)
}

// Shutdown drains in-flight requests and stops the sync loop, waiting
// at most deadline.
func (rt *Router) Shutdown(deadline time.Duration) error {
	rt.mu.Lock()
	cancel, done := rt.loopCancel, rt.loopDone
	rt.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	return rt.http.Shutdown(deadline)
}
