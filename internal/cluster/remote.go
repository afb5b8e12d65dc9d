package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/role"
)

// Client-side farm observability: how often the pool asked a worker for
// work, how often it had to retry, the health transitions of the worker
// set, and per-worker request latency.
var (
	cPoolRequests     = obs.NewCounter("cluster.pool_requests")
	cPoolRetries      = obs.NewCounter("cluster.retries")
	cPoolEvictions    = obs.NewCounter("cluster.evictions")
	cPoolReadmissions = obs.NewCounter("cluster.readmissions")
	cPoolFailures     = obs.NewCounter("cluster.eval_failures")
	cRemoteEvals      = obs.NewCounter("cluster.remote_evals")
	cRemoteCacheHits  = obs.NewCounter("cluster.remote_cache_hits")
	hPoolLatency      = obs.NewHistogramVec("cluster.worker_request_seconds", obs.DefLatencyBuckets, "worker")
)

// PoolOptions tunes the client side of the evaluation farm. Zero values
// take production defaults.
type PoolOptions struct {
	// MaxInflight bounds concurrent requests per worker; excess callers
	// block on the worker's slot (default 4).
	MaxInflight int
	// RequestTimeout bounds one attempt against one worker (default 2m;
	// a cold batch of simulations is slow but not unbounded).
	RequestTimeout time.Duration
	// MaxAttempts bounds the attempts for one evaluation across the
	// whole pool before the caller sees the error (default
	// max(4, 2 × workers)).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff; subsequent retries
	// double it up to MaxBackoff, each with full jitter (default 50ms,
	// capped at 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Deprecated: HedgeQuantile is ignored. The pool sends each attempt
	// to one worker only.
	HedgeQuantile float64
	// EvictAfter is the consecutive-failure count that evicts a worker
	// from rotation (default 3).
	EvictAfter int
	// ReadmitAfter is how long an evicted worker rests before a live
	// request probes it for readmission (default 5s).
	ReadmitAfter time.Duration
	// BatchChunk splits a large evaluation batch into per-worker
	// requests of this size so one batch fans out across the farm
	// (default 64).
	BatchChunk int
	// Client overrides the HTTP client (default: a dedicated client
	// with sane connection pooling).
	Client *http.Client
}

func (o PoolOptions) withDefaults(workers int) PoolOptions {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2 * workers
		if o.MaxAttempts < 4 {
			o.MaxAttempts = 4
		}
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.EvictAfter <= 0 {
		o.EvictAfter = 3
	}
	if o.ReadmitAfter <= 0 {
		o.ReadmitAfter = 5 * time.Second
	}
	if o.BatchChunk <= 0 {
		o.BatchChunk = 64
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: o.MaxInflight,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// permanentError marks a failure retrying cannot fix (the worker
// understood the request and rejected it).
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// workerConn is the pool's view of one worker: its in-flight slots and
// its health state.
type workerConn struct {
	url string
	sem chan struct{}

	mu        sync.Mutex
	fails     int // consecutive failures
	evicted   bool
	evictedAt time.Time

	ok   atomic.Int64 // total successful requests
	errs atomic.Int64 // total failed requests
}

// available reports whether the worker may take a request now: healthy,
// or evicted long enough ago that a readmission probe is due.
func (w *workerConn) available(now time.Time, readmitAfter time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.evicted || now.Sub(w.evictedAt) >= readmitAfter
}

// Pool is a health-gated set of sim workers. It owns worker selection
// (round-robin over available workers), bounded in-flight slots,
// retries with jittered exponential backoff, and eviction/readmission.
type Pool struct {
	opt     PoolOptions
	workers []*workerConn
	rr      atomic.Uint64
}

// NewPool builds a pool over the given worker base URLs (scheme
// optional; "host:port" is normalized to "http://host:port").
func NewPool(urls []string, opt PoolOptions) (*Pool, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: a worker pool needs at least one worker URL")
	}
	opt = opt.withDefaults(len(urls))
	p := &Pool{opt: opt}
	seen := map[string]bool{}
	for _, u := range urls {
		if u = normalizeBaseURL(u); u == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate worker URL %s", u)
		}
		seen[u] = true
		p.workers = append(p.workers, &workerConn{
			url: u,
			sem: make(chan struct{}, opt.MaxInflight),
		})
	}
	return p, nil
}

// Workers lists the pool's worker URLs in configuration order.
func (p *Pool) Workers() []string {
	out := make([]string, len(p.workers))
	for i, w := range p.workers {
		out[i] = w.url
	}
	return out
}

// pick selects the next worker round-robin among available ones. When
// nothing is available it falls back to the least-recently-evicted
// worker: a fully dark farm should keep probing rather than deadlock.
func (p *Pool) pick() *workerConn {
	now := time.Now()
	n := len(p.workers)
	start := int(p.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		if w := p.workers[(start+i)%n]; w.available(now, p.opt.ReadmitAfter) {
			return w
		}
	}
	oldest := p.workers[0]
	for _, w := range p.workers[1:] {
		if oldestEvictedAt(w).Before(oldestEvictedAt(oldest)) {
			oldest = w
		}
	}
	return oldest
}

func oldestEvictedAt(w *workerConn) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.evictedAt
}

// succeed records a successful request: latency lands in the
// per-worker histogram, and an evicted worker that answered a probe is
// readmitted.
func (p *Pool) succeed(w *workerConn, d time.Duration) {
	w.ok.Add(1)
	hPoolLatency.With(w.url).Observe(d.Seconds())
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails = 0
	if w.evicted {
		w.evicted = false
		cPoolReadmissions.Inc()
	}
}

// fail records a failed request; EvictAfter consecutive failures evict
// the worker, and a failed readmission probe restarts its rest period.
func (p *Pool) fail(w *workerConn) {
	w.errs.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fails++
	if w.evicted {
		w.evictedAt = time.Now()
		return
	}
	if w.fails >= p.opt.EvictAfter {
		w.evicted = true
		w.evictedAt = time.Now()
		cPoolEvictions.Inc()
	}
}

// attempt runs one request against one worker: acquire an in-flight
// slot, POST the body through role.Call with the per-attempt deadline,
// parse the answer, and check that it holds one value per config. Each
// attempt is a "cluster.pool_attempt" span annotated with its worker and
// outcome, so a retried eval shows every worker it tried; a sampled
// worker's span forest is grafted under it.
func (p *Pool) attempt(ctx context.Context, w *workerConn, body []byte, configs int) (*EvalResponse, error) {
	spanCtx, endSpan := obs.StartSpanArgs(ctx, "cluster.pool_attempt", "worker", w.url)
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		endSpan("outcome", "canceled")
		return nil, ctx.Err()
	}
	a, err := role.Call(spanCtx, p.opt.Client, http.MethodPost, w.url+"/v1/eval", body, p.opt.RequestTimeout)
	// failed ends the span and counts the failure against the worker,
	// unless the caller gave up: a cancelled caller does not indict the
	// worker it was waiting on.
	failed := func(outcome string, err error) (*EvalResponse, error) {
		if ctx.Err() != nil {
			endSpan(a.SpanArgs("outcome", "canceled")...)
			return nil, ctx.Err()
		}
		p.fail(w)
		endSpan(a.SpanArgs("outcome", outcome)...)
		return nil, err
	}
	if err != nil {
		return failed("no_answer", fmt.Errorf("cluster: worker %s: %w", w.url, err))
	}
	if a.Status != http.StatusOK {
		err := fmt.Errorf("cluster: worker %s answered %d: %s", w.url, a.Status, truncate(a.Body, 200))
		if a.Status >= 400 && a.Status < 500 && a.Status != http.StatusTooManyRequests {
			// The request itself is wrong; no worker will accept it.
			// 4xx does not indict the worker's health.
			endSpan(a.SpanArgs("outcome", "rejected")...)
			return nil, permanentError{err}
		}
		return failed("server_error", err)
	}
	var er EvalResponse
	if err := json.Unmarshal(a.Body, &er); err != nil {
		return failed("bad_body", fmt.Errorf("cluster: worker %s: bad response body: %w", w.url, err))
	}
	if len(er.Values) != configs {
		return failed("bad_body", fmt.Errorf("cluster: worker %s answered %d values for %d configs", w.url, len(er.Values), configs))
	}
	p.succeed(w, a.RTT)
	endSpan(a.SpanArgs("outcome", "ok")...)
	return &er, nil
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

// EvalChunk evaluates one chunk of configurations on the farm: retries
// with jittered exponential backoff across workers on transient
// failures, gives up immediately on permanent (4xx) rejections, and
// returns the number of simulations the farm ran for it.
func (p *Pool) EvalChunk(ctx context.Context, req EvalRequest) ([]float64, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	cPoolRequests.Inc()
	var lastErr error
	backoff := p.opt.BaseBackoff
	for a := 0; a < p.opt.MaxAttempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if a > 0 {
			cPoolRetries.Inc()
			// Full jitter: a uniformly random fraction of the doubled
			// backoff decorrelates retry storms across concurrent evals.
			d := time.Duration(rand.Int63n(int64(backoff) + 1))
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, 0, ctx.Err()
			}
			if backoff *= 2; backoff > p.opt.MaxBackoff {
				backoff = p.opt.MaxBackoff
			}
		}
		res, err := p.attempt(ctx, p.pick(), body, len(req.Configs))
		if err == nil {
			return res.Values, res.Sims, nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			cPoolFailures.Inc()
			return nil, 0, err
		}
		lastErr = err
	}
	cPoolFailures.Inc()
	return nil, 0, fmt.Errorf("cluster: evaluation failed after %d attempts: %w", p.opt.MaxAttempts, lastErr)
}

// WorkerStatus is one row of the pool's topology snapshot.
type WorkerStatus struct {
	URL      string `json:"url"`
	Evicted  bool   `json:"evicted"`
	Fails    int    `json:"consecutive_fails"`
	Inflight int    `json:"inflight"`
	OK       int64  `json:"requests_ok"`
	Errors   int64  `json:"requests_failed"`
}

// Snapshot reports every worker's health for /statusz and /healthz
// surfaces.
func (p *Pool) Snapshot() []WorkerStatus {
	out := make([]WorkerStatus, len(p.workers))
	for i, w := range p.workers {
		w.mu.Lock()
		out[i] = WorkerStatus{
			URL:      w.url,
			Evicted:  w.evicted,
			Fails:    w.fails,
			Inflight: len(w.sem),
			OK:       w.ok.Load(),
			Errors:   w.errs.Load(),
		}
		w.mu.Unlock()
	}
	return out
}

// ---- RemoteEvaluator ----

// remoteEntry is the single-flight slot for one configuration, mirroring
// core's simEntry; ok distinguishes a published value from a failed
// fetch (failures are forgotten so a later Eval retries).
type remoteEntry struct {
	done chan struct{}
	val  float64
	ok   bool
}

// RemoteEvaluator implements core.Evaluator over a worker pool: the
// scale-out seam the ROADMAP names. Results are memoized with the same
// single-flight discipline as core.SimEvaluator, and since workers run
// the identical deterministic simulator, a model built through a
// RemoteEvaluator is bit-identical to one built in-process.
//
// Eval cannot return an error (the interface stands in for a local
// simulator); when the farm is exhausted it returns NaN and records the
// failure — check Err after a build.
type RemoteEvaluator struct {
	Benchmark string
	TraceLen  int

	pool   *Pool
	metric core.Metric

	mu    sync.Mutex
	cache map[string]*remoteEntry
	evals int // distinct configurations fetched (cache misses completed)

	errMu    sync.Mutex
	firstErr error
}

// NewRemoteEvaluator builds a farm-backed evaluator of metric for one
// benchmark and trace length.
func NewRemoteEvaluator(pool *Pool, benchmark string, traceLen int, metric core.Metric) *RemoteEvaluator {
	return &RemoteEvaluator{
		Benchmark: benchmark,
		TraceLen:  traceLen,
		pool:      pool,
		metric:    metric,
		cache:     map[string]*remoteEntry{},
	}
}

var _ core.Evaluator = (*RemoteEvaluator)(nil)

// Eval returns the metric for cfg, asking the farm on a cache miss.
// Concurrent misses on the same configuration single-flight: the losers
// wait for the winner's network round trip instead of duplicating it.
func (e *RemoteEvaluator) Eval(cfg design.Config) float64 {
	return e.evalCtx(context.Background(), cfg)
}

// Bind returns a view of this evaluator whose remote calls carry ctx —
// the request-scoped trace (so pool attempts and worker spans land in
// the request's timeline) and its cancellation — while sharing the
// cache, single-flight slots, and pool of the parent. It keeps the
// ctx-less core.Evaluator seam intact: request handlers bind per
// request, batch builders use the evaluator as-is.
func (e *RemoteEvaluator) Bind(ctx context.Context) core.Evaluator {
	if ctx == nil {
		return e
	}
	return boundRemote{e: e, ctx: ctx}
}

// boundRemote is a RemoteEvaluator view carrying a request context.
type boundRemote struct {
	e   *RemoteEvaluator
	ctx context.Context
}

func (b boundRemote) Eval(cfg design.Config) float64 { return b.e.evalCtx(b.ctx, cfg) }
func (b boundRemote) EvalBatch(cfgs []design.Config) ([]float64, error) {
	return b.e.evalBatchCtx(b.ctx, cfgs)
}
func (b boundRemote) Simulations() int { return b.e.Simulations() }
func (b boundRemote) Err() error       { return b.e.Err() }

func (e *RemoteEvaluator) evalCtx(ctx context.Context, cfg design.Config) float64 {
	key := cfg.Key()
	for {
		e.mu.Lock()
		ent, ok := e.cache[key]
		if !ok {
			ent = &remoteEntry{done: make(chan struct{})}
			e.cache[key] = ent
			e.mu.Unlock()
			e.fetch(ctx, key, ent, cfg)
			return ent.val
		}
		e.mu.Unlock()
		cRemoteCacheHits.Inc()
		select {
		case <-ent.done:
		case <-ctx.Done():
			e.recordErr(ctx.Err())
			return math.NaN()
		}
		if ent.ok {
			return ent.val
		}
		// The winner failed and removed the entry; retry as a fresh
		// miss (the backoff already happened inside the pool).
		if err := ctx.Err(); err != nil {
			e.recordErr(err)
			return math.NaN()
		}
	}
}

// fetch resolves one cache miss. On success the value is published; on
// failure the entry is removed so a later Eval can retry, the error is
// recorded, and NaN is published to current waiters.
func (e *RemoteEvaluator) fetch(ctx context.Context, key string, ent *remoteEntry, cfg design.Config) {
	defer close(ent.done)
	cRemoteEvals.Inc()
	vals, _, err := e.pool.EvalChunk(ctx, EvalRequest{
		Benchmark: e.Benchmark,
		TraceLen:  e.TraceLen,
		Metric:    strings.ToLower(e.metric.String()),
		Configs:   []WireConfig{FromConfig(cfg)},
	})
	if err == nil {
		ent.val, ent.ok = vals[0], true
		e.mu.Lock()
		e.evals++
		e.mu.Unlock()
		return
	}
	e.recordErr(err)
	ent.val = math.NaN()
	e.mu.Lock()
	delete(e.cache, key)
	e.mu.Unlock()
}

// EvalBatch evaluates a batch of configurations, fanning cache misses
// across the farm in BatchChunk-sized concurrent requests. Results are
// positionally stable and bit-identical to per-config Eval calls.
func (e *RemoteEvaluator) EvalBatch(cfgs []design.Config) ([]float64, error) {
	return e.evalBatchCtx(context.Background(), cfgs)
}

func (e *RemoteEvaluator) evalBatchCtx(ctx context.Context, cfgs []design.Config) ([]float64, error) {
	out := make([]float64, len(cfgs))
	missIdx := make([]int, 0, len(cfgs))
	e.mu.Lock()
	for i, cfg := range cfgs {
		if ent, ok := e.cache[cfg.Key()]; ok && ent.ok {
			out[i] = ent.val
			continue
		}
		missIdx = append(missIdx, i)
	}
	e.mu.Unlock()
	if len(missIdx) == 0 {
		return out, nil
	}
	chunk := e.pool.opt.BatchChunk
	nChunks := (len(missIdx) + chunk - 1) / chunk
	errs := make([]error, nChunks)
	var wg sync.WaitGroup
	for c := 0; c < nChunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(missIdx) {
			hi = len(missIdx)
		}
		wg.Add(1)
		go func(c int, idx []int) {
			defer wg.Done()
			req := EvalRequest{
				Benchmark: e.Benchmark,
				TraceLen:  e.TraceLen,
				Metric:    strings.ToLower(e.metric.String()),
				Configs:   make([]WireConfig, len(idx)),
			}
			for a, i := range idx {
				req.Configs[a] = FromConfig(cfgs[i])
			}
			vals, _, err := e.pool.EvalChunk(ctx, req)
			if err != nil {
				errs[c] = err
				return
			}
			e.mu.Lock()
			for a, i := range idx {
				out[i] = vals[a]
				key := cfgs[i].Key()
				if _, ok := e.cache[key]; !ok {
					ent := &remoteEntry{done: make(chan struct{}), val: vals[a], ok: true}
					close(ent.done)
					e.cache[key] = ent
					e.evals++
				}
			}
			e.mu.Unlock()
		}(c, missIdx[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.recordErr(err)
			return out, err
		}
	}
	return out, nil
}

func (e *RemoteEvaluator) recordErr(err error) {
	if err == nil {
		return
	}
	e.errMu.Lock()
	defer e.errMu.Unlock()
	if e.firstErr == nil {
		e.firstErr = err
	}
}

// Err reports the first remote failure the evaluator swallowed into a
// NaN. Code that builds a model on it should check it:
// a non-nil error means the built model may rest on incomplete data.
func (e *RemoteEvaluator) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.firstErr
}

// Simulations reports how many distinct configurations were resolved
// through the farm — the remote analogue of
// core.SimEvaluator.Simulations.
func (e *RemoteEvaluator) Simulations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}

// Pool exposes the evaluator's pool, e.g. for topology surfaces.
func (e *RemoteEvaluator) Pool() *Pool { return e.pool }

func (e *RemoteEvaluator) String() string {
	return fmt.Sprintf("remote(%s, %d insts, %d workers)", e.Benchmark, e.TraceLen, len(e.pool.workers))
}
