package cluster

import (
	"container/list"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/role"
	"predperf/internal/trace"
)

// Worker-side observability: request and configuration counts, the
// simulations the farm actually paid for, and evaluation latency per
// benchmark (the router-side histograms are per worker; the worker-side
// ones are per workload).
var (
	cWorkerEvals   = obs.NewCounter("cluster.worker_eval_requests")
	cWorkerConfigs = obs.NewCounter("cluster.worker_eval_configs")
	cWorkerSims    = obs.NewCounter("cluster.worker_sims")
	cWorkerErrors  = obs.NewCounter("cluster.worker_errors")
	gWorkerInflt   = obs.NewGauge("cluster.worker_inflight")
	hWorkerEval    = obs.NewHistogramVec("cluster.worker_eval_seconds", obs.DefLatencyBuckets, "benchmark")
)

// WorkerOptions configures a sim worker. Zero values take production
// defaults.
type WorkerOptions struct {
	// ID identifies this worker in responses and /statusz (default: the
	// listener address once Serve is called).
	ID string
	// MaxBatch bounds the configurations in one eval request (default
	// 4096, matching predserve's predict limit).
	MaxBatch int
	// MaxBodyBytes bounds a request body (default 4 MiB — eval batches
	// are bigger than predict bodies).
	MaxBodyBytes int64
	// MaxTraceLen bounds the trace length a request may demand, so one
	// caller cannot pin a worker on an arbitrarily expensive simulation
	// (default 10M instructions).
	MaxTraceLen int
	// Timeout bounds the handling of one request (default 5m: a cold
	// batch of long simulations is legitimate work).
	Timeout time.Duration
	// Workers bounds the goroutines evaluating one batch (default all
	// CPUs). Results land in fixed slots, so the response is
	// deterministic for any setting.
	Workers int
	// TraceSample is the head-sampling rate for requests arriving
	// without a traceparent header (direct callers). Requests from a
	// traced pool carry the edge's decision and ignore this. 0 means
	// sample everything (matching the old always-trace behaviour);
	// negative disables edge sampling entirely.
	TraceSample float64
	// TraceStoreSize caps each retention class of the /tracez store
	// (default 64).
	TraceStoreSize int
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 4 << 20
	}
	if o.MaxTraceLen <= 0 {
		o.MaxTraceLen = 10_000_000
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Minute
	}
	if o.TraceSample == 0 {
		o.TraceSample = 1
	}
	if o.TraceStoreSize <= 0 {
		o.TraceStoreSize = 64
	}
	return o
}

// evalCeilings is the largest value of each config field a worker
// simulates: 4× the top of the field's Table 1 range, and the ROB's for
// IQ and LSQ, which the paper sizes as fractions of it. The simulator
// sizes its structures from these fields, so a larger one is an
// allocation a caller chooses, or a machine that cannot commit within
// the simulator's no-progress limit, which panics.
var evalCeilings = WireConfig{Depth: 96, ROB: 512, IQ: 512, LSQ: 512,
	L2KB: 32768, L2Lat: 80, IL1KB: 256, DL1KB: 256, DL1Lat: 16}

// simulable is Validate, and rejects a field past its evalCeilings
// value too.
func simulable(wc WireConfig) error {
	if err := wc.Validate(); err != nil {
		return err
	}
	top := evalCeilings.fields()
	for i, f := range wc.fields() {
		if f.v > top[i].v {
			return fmt.Errorf("field %q must be at most %d, got %d", f.name, top[i].v, f.v)
		}
	}
	return nil
}

// Worker serves the cycle-level simulator over HTTP. Evaluators are
// memoized per (benchmark, trace length) — the same single-flight
// simulation cache a local build enjoys, so repeated requests for hot
// configurations cost one simulation total — and every response is
// bit-identical to evaluating locally. Each evaluator owns its trace,
// and the worker keeps evaluators, least recently used evicted first,
// only while their traces total at most 2 × MaxTraceLen instructions.
type Worker struct {
	opt     WorkerOptions
	start   time.Time
	http    *role.Server
	sampler obs.Sampler
	traces  *obs.TraceStore

	mu    sync.Mutex
	id    string
	evs   map[string]*list.Element // benchmark \x00 traceLen → element of lru
	lru   list.List                // *core.SimEvaluator, most recently used first
	insts int                      // trace instructions the kept evaluators hold
}

// NewWorker builds a Worker; it serves nothing until Serve.
func NewWorker(opt WorkerOptions) *Worker {
	w := &Worker{opt: opt.withDefaults(), start: time.Now()}
	w.id = w.opt.ID
	w.evs = map[string]*list.Element{}
	w.sampler = obs.NewSampler(w.opt.TraceSample)
	obs.NewGaugeFunc("obs.trace_sample_rate", w.sampler.Rate)
	w.traces = obs.NewTraceStore(w.opt.TraceStoreSize)
	w.http = role.NewServer(w.Handler())
	return w
}

// Traces exposes the worker's /tracez store.
func (w *Worker) Traces() *obs.TraceStore { return w.traces }

// evaluatorKey names an evaluator in Worker.evs.
func evaluatorKey(benchmark string, traceLen int) string {
	return benchmark + "\x00" + strconv.Itoa(traceLen)
}

// evaluator returns (building and memoizing on first use) the evaluator
// for one benchmark and trace length, on a trace generated for it, so
// evicting the evaluator frees its trace. Construction errors are
// returned to the client rather than cached: a worker outliving a
// transient failure keeps serving.
func (w *Worker) evaluator(benchmark string, traceLen int) (*core.SimEvaluator, error) {
	key := evaluatorKey(benchmark, traceLen)
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.evs[key]; ok {
		w.lru.MoveToFront(e)
		return e.Value.(*core.SimEvaluator), nil
	}
	tr, err := trace.Named(benchmark, traceLen)
	if err != nil {
		return nil, err
	}
	for w.insts+traceLen > 2*w.opt.MaxTraceLen {
		old := w.lru.Remove(w.lru.Back()).(*core.SimEvaluator)
		delete(w.evs, evaluatorKey(old.Benchmark, old.TraceLen))
		w.insts -= old.TraceLen
	}
	ev := core.NewTraceEvaluator(benchmark, tr)
	w.evs[key] = w.lru.PushFront(ev)
	w.insts += traceLen
	return ev, nil
}

// ID reports the worker's identity (the listener address unless
// WorkerOptions.ID overrode it).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Handler returns the worker API: /v1/eval, /healthz, /metricz,
// /tracez, and a /statusz topology page, wrapped with trace propagation
// and the per-request deadline.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", w.handleEval)
	mux.HandleFunc("/healthz", w.handleHealthz)
	mux.HandleFunc("/metricz", role.Metricz)
	mux.Handle("/tracez", w.traces.Handler())
	mux.HandleFunc("/statusz", w.handleStatusz)
	edge := role.Edge{Role: "worker", Sampler: w.sampler, Traces: w.traces}
	return edge.Wrap(role.WithTimeout(mux, w.opt.Timeout, "worker"))
}

func (w *Worker) handleEval(rw http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(rw, r, http.MethodPost) {
		return
	}
	_, endEval := obs.StartSpanCtx(r.Context(), "cluster.worker_eval")
	defer endEval()
	gWorkerInflt.Inc()
	defer gWorkerInflt.Dec()
	var req EvalRequest
	if !role.ReadJSON(rw, r, w.opt.MaxBodyBytes, &req) {
		cWorkerErrors.Inc()
		return
	}
	if req.Benchmark == "" {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusBadRequest, "bad_request", `"benchmark" is required`)
		return
	}
	if req.TraceLen <= 0 {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusBadRequest, "bad_request", `"trace_len" must be positive, got %d`, req.TraceLen)
		return
	}
	if req.TraceLen > w.opt.MaxTraceLen {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusBadRequest, "trace_too_long",
			"trace_len %d exceeds this worker's %d-instruction limit", req.TraceLen, w.opt.MaxTraceLen)
		return
	}
	if len(req.Configs) == 0 {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusBadRequest, "bad_request", `"configs" must not be empty`)
		return
	}
	if len(req.Configs) > w.opt.MaxBatch {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of %d exceeds the %d-configuration limit", len(req.Configs), w.opt.MaxBatch)
		return
	}
	metric, err := core.ParseMetric(req.Metric)
	if err != nil {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	cfgs := make([]design.Config, len(req.Configs))
	for i, wc := range req.Configs {
		if err := simulable(wc); err != nil {
			cWorkerErrors.Inc()
			role.WriteErr(rw, http.StatusBadRequest, "invalid_config", "configs[%d]: %v", i, err)
			return
		}
		cfgs[i] = wc.Config()
	}
	base, err := w.evaluator(req.Benchmark, req.TraceLen)
	if err != nil {
		cWorkerErrors.Inc()
		role.WriteErr(rw, http.StatusBadRequest, "unknown_benchmark", "%v", err)
		return
	}
	ev := base.WithMetric(metric)

	cWorkerEvals.Inc()
	cWorkerConfigs.Add(int64(len(cfgs)))
	t0 := time.Now()
	simsBefore := base.Simulations()
	ctx := r.Context()
	values := make([]float64, len(cfgs))
	par.For(par.Workers(w.opt.Workers), len(cfgs), func(i int) {
		// A dead client stops costing simulation time at the next
		// config boundary; already-filled slots are simply discarded.
		if ctx.Err() != nil {
			return
		}
		values[i] = ev.Eval(cfgs[i])
	})
	if ctx.Err() != nil {
		cWorkerErrors.Inc()
		return // the client is gone; nothing can read the response
	}
	sims := base.Simulations() - simsBefore
	cWorkerSims.Add(int64(sims))
	hWorkerEval.With(req.Benchmark).Observe(time.Since(t0).Seconds())
	role.WriteJSON(rw, http.StatusOK, EvalResponse{Values: values, Sims: sims, Worker: w.ID()})
}

// workerLoadedEvaluator is one row of the worker's /healthz and
// /statusz evaluator tables.
type workerLoadedEvaluator struct {
	Benchmark string `json:"benchmark"`
	TraceLen  int    `json:"trace_len"`
	Sims      int    `json:"sims"`
}

func (w *Worker) loaded() []workerLoadedEvaluator {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]workerLoadedEvaluator, 0, len(w.evs))
	for e := w.lru.Front(); e != nil; e = e.Next() {
		ev := e.Value.(*core.SimEvaluator)
		out = append(out, workerLoadedEvaluator{
			Benchmark: ev.Benchmark, TraceLen: ev.TraceLen, Sims: ev.Simulations(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benchmark != out[j].Benchmark {
			return out[i].Benchmark < out[j].Benchmark
		}
		return out[i].TraceLen < out[j].TraceLen
	})
	return out
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(rw, r, http.MethodGet) {
		return
	}
	role.WriteJSON(rw, http.StatusOK, map[string]any{
		"status":     "ok",
		"role":       "simworker",
		"worker":     w.ID(),
		"uptime_sec": int64(time.Since(w.start).Seconds()),
		"evaluators": w.loaded(),
		"requests":   cWorkerEvals.Value(),
		"configs":    cWorkerConfigs.Value(),
		"sims":       cWorkerSims.Value(),
	})
}

func (w *Worker) handleStatusz(rw http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(rw, r, http.MethodGet) {
		return
	}
	evals := obs.Section{Title: "Loaded evaluators", Headers: []string{"benchmark", "trace insts", "sims"},
		Empty: "no evaluators loaded yet — the first /v1/eval builds one"}
	for _, ev := range w.loaded() {
		evals.Rows = append(evals.Rows, obs.Texts(ev.Benchmark, strconv.Itoa(ev.TraceLen), strconv.Itoa(ev.Sims)))
	}
	statusPage("simworker "+w.ID(), "simworker", w.start, [][2]string{
		{"eval requests", strconv.FormatInt(cWorkerEvals.Value(), 10)},
		{"configs scored", strconv.FormatInt(cWorkerConfigs.Value(), 10)},
		{"simulations run", strconv.FormatInt(cWorkerSims.Value(), 10)},
		{"in flight", strconv.FormatInt(gWorkerInflt.Value(), 10)},
		{"trace sample rate", strconv.FormatFloat(w.sampler.Rate(), 'g', 4, 64)},
	}, evals).Write(rw)
}

// Serve accepts connections on l until Shutdown. When no explicit ID
// was configured, the listener address becomes the worker's identity.
func (w *Worker) Serve(l net.Listener) error {
	w.mu.Lock()
	if w.id == "" {
		w.id = l.Addr().String()
	}
	w.mu.Unlock()
	return w.http.Serve(l)
}

// Shutdown drains in-flight requests, waiting at most deadline.
func (w *Worker) Shutdown(deadline time.Duration) error { return w.http.Shutdown(deadline) }

var _ fmt.Stringer = (*Worker)(nil)

func (w *Worker) String() string { return "simworker(" + w.ID() + ")" }
