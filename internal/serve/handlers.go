package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net/http"

	"predperf/internal/cluster"
	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/par"
	"predperf/internal/role"
	"predperf/internal/search"
)

// cModelPredictions counts scored configurations per model, so /metricz
// says which models actually take traffic.
var cModelPredictions = obs.NewCounterVec("serve.model_predictions", "model")

// ---- /healthz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	role.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": s.reg.Len(),
		"build":  Build(),
	})
}

// ---- /v1/models ----

// modelInfo is one row of the GET /v1/models listing.
type modelInfo struct {
	Name       string  `json:"name"`
	Benchmark  string  `json:"benchmark,omitempty"`
	SampleSize int     `json:"sample_size"`
	Centers    int     `json:"centers"`
	AICc       float64 `json:"aicc"`
	Path       string  `json:"path,omitempty"`
	// Generation distinguishes successive holders of the name: it bumps
	// on every hot load, so an operator (or the CI smoke test) can tell
	// a rebuilt model went live.
	Generation uint64 `json:"generation"`
}

func entryInfo(e *Entry) modelInfo {
	return modelInfo{
		Name:       e.Name,
		Benchmark:  e.Model.Name,
		SampleSize: e.Model.SampleSize,
		Centers:    e.Model.Fit.NumCenters(),
		AICc:       e.Model.Fit.AICc,
		Path:       e.Path,
		Generation: e.Generation(),
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	entries := s.reg.Entries()
	infos := make([]modelInfo, len(entries))
	for i, e := range entries {
		infos[i] = entryInfo(e)
	}
	role.WriteJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// ---- /v1/models/load ----

type loadRequest struct {
	// Path of a model file saved by predperf -save, relative to the
	// server's -models directory. Absolute paths and paths escaping the
	// directory are rejected (forbidden_path), as is any load when the
	// server has no model directory.
	Path string `json:"path"`
	// Name optionally overrides the registry name (default: the model's
	// persisted benchmark name, then the file base name).
	Name string `json:"name"`
	// Dir loads every *.json in a subdirectory of the model directory
	// instead of one file ("." reloads the model directory itself).
	// Confined like Path.
	Dir string `json:"dir"`
}

// handleModelsLoad hot-loads a file or a directory. Rebuilding a
// drifting model and hot-loading it is the remedy for drift, so every
// name a load replaces starts on a clean drift window instead of
// inheriting its predecessor's samples.
func (s *Server) handleModelsLoad(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodPost) {
		return
	}
	var req loadRequest
	if !role.ReadJSON(w, r, s.opt.MaxBodyBytes, &req) {
		return
	}
	switch {
	case req.Dir != "":
		rel, err := s.reg.ClientPath(req.Dir)
		if err != nil {
			role.WriteErr(w, http.StatusForbidden, "forbidden_path", "%v", err)
			return
		}
		names, err := s.reg.LoadDir(s.reg.resolve(rel))
		if err != nil {
			role.WriteErr(w, http.StatusBadRequest, "load_failed", "%v", err)
			return
		}
		for _, name := range names {
			s.shadow.resetModel(name)
		}
		role.WriteJSON(w, http.StatusOK, map[string]any{"loaded": names})
	case req.Path != "":
		rel, err := s.reg.ClientPath(req.Path)
		if err != nil {
			role.WriteErr(w, http.StatusForbidden, "forbidden_path", "%v", err)
			return
		}
		name, err := s.reg.LoadFile(rel, req.Name)
		if err != nil {
			role.WriteErr(w, http.StatusBadRequest, "load_failed", "%v", err)
			return
		}
		s.shadow.resetModel(name)
		e, _ := s.reg.Get(name)
		role.WriteJSON(w, http.StatusOK, map[string]any{"loaded": []string{name}, "model": entryInfo(e)})
	default:
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `"path" or "dir" is required`)
	}
}

// ---- /v1/predict ----

type predictRequest struct {
	Model string `json:"model"`
	// Config predicts one configuration; Configs a batch. Exactly one
	// of the two must be present.
	Config  *cluster.WireConfig  `json:"config,omitempty"`
	Configs []cluster.WireConfig `json:"configs,omitempty"`
}

// prediction is one scored configuration. Config echoes the machine
// actually scored: the input after clamping to the design space's
// ranges and quantizing to its discrete levels.
type prediction struct {
	Config  cluster.WireConfig `json:"config"`
	Value   float64            `json:"value"`
	Cached  bool               `json:"cached"`
	Clamped bool               `json:"clamped,omitempty"`
}

type predictResponse struct {
	Model       string       `json:"model"`
	Predictions []prediction `json:"predictions"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodPost) {
		return
	}
	_, end := obs.StartSpanCtx(r.Context(), "serve.predict")
	defer end()
	var req predictRequest
	if !s.readPredict(w, r, &req) {
		return
	}
	if req.Model == "" {
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `"model" is required`)
		return
	}
	entry, ok := s.reg.Get(req.Model)
	if !ok {
		role.WriteErr(w, http.StatusNotFound, "unknown_model",
			"no model %q is loaded (GET /v1/models lists the registry)", req.Model)
		return
	}
	var batch []cluster.WireConfig
	switch {
	case req.Config != nil && len(req.Configs) > 0:
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `give "config" or "configs", not both`)
		return
	case req.Config != nil:
		batch = []cluster.WireConfig{*req.Config}
	case len(req.Configs) > 0:
		batch = req.Configs
	default:
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `"config" or "configs" is required`)
		return
	}
	if len(batch) > maxBatch {
		role.WriteErr(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of %d exceeds the %d-configuration limit", len(batch), maxBatch)
		return
	}
	for i, wc := range batch {
		if err := wc.Validate(); err != nil {
			role.WriteErr(w, http.StatusBadRequest, "invalid_config", "configs[%d]: %v", i, err)
			return
		}
	}
	cPredicts.Inc()
	var preds []prediction
	if len(batch) == 1 {
		// A single prediction never pays worker-pool dispatch: it goes
		// through the coalescer, so concurrent singles share one
		// vectorized evaluation. Waiting there is the only step of a
		// prediction that is not bounded in-process work, so the
		// request deadline bounds just that wait.
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.Timeout)
		p, err := s.coalesce.predict(ctx, entry, batch[0].Config())
		cancel()
		switch {
		case errors.Is(err, ErrCoalesceQueueFull):
			// The dispatcher never waits between flushes: a full queue
			// drains in 64 back-to-back flushes of 64. Hint the header's
			// smallest unit, one second.
			w.Header().Set("Retry-After", "1")
			role.WriteErr(w, http.StatusServiceUnavailable, "coalesce_queue_full",
				"the prediction admission queue is full; retry shortly")
			return
		case errors.Is(err, ErrCoalesceStopped):
			role.WriteErr(w, http.StatusServiceUnavailable, "shutting_down",
				"the server is draining and no longer accepts predictions")
			return
		case errors.Is(err, context.DeadlineExceeded):
			role.WriteErr(w, http.StatusServiceUnavailable, "timeout",
				"request exceeded the server's per-request deadline")
			return
		case err != nil: // the client went away while queued
			role.WriteErr(w, http.StatusServiceUnavailable, "request_canceled",
				"request canceled while queued for coalescing: %v", err)
			return
		}
		preds = []prediction{p}
	} else {
		// Explicit batches skip the coalescer: they already have batch
		// shape, so they go straight to the vectorized evaluator.
		cfgs := make([]design.Config, len(batch))
		for i, wc := range batch {
			cfgs[i] = wc.Config()
		}
		preds = s.predictBatch(entry, cfgs)
	}
	// A model can overflow a sum even when every weight and radius is
	// finite, and JSON has no NaN or infinity.
	for i, p := range preds {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) {
			role.WriteErr(w, http.StatusInternalServerError, "non_finite_prediction",
				"model %q predicted %v for configs[%d]", req.Model, p.Value, i)
			return
		}
	}
	// Counted once scored, so a rejected single is not a prediction.
	cBatchPts.Add(int64(len(preds)))
	cModelPredictions.With(req.Model).Add(int64(len(preds)))
	writePredict(w, &predictResponse{Model: req.Model, Predictions: preds})
}

// readPredict decodes a /v1/predict body into req: by hand when it has
// the canonical shape (decodePredict), otherwise as role.ReadJSON does,
// with its errors.
func (s *Server) readPredict(w http.ResponseWriter, r *http.Request, req *predictRequest) bool {
	return role.ReadJSONFast(w, r, s.opt.MaxBodyBytes, req, func(body []byte) bool {
		return decodePredict(body, req)
	})
}

// cacheKey appends the LRU key for one quantized configuration to dst:
// the length-prefixed model name, the entry generation and the nine
// quantized values, each a varint. Varints delimit themselves, so two
// keys are equal exactly when all three parts are. The generation
// retires every cached value for a name when a hot-reload replaces its
// model (stale entries stop matching and age out). Callers pass a stack
// buffer, so a lookup allocates nothing.
func cacheKey(dst []byte, e *Entry, q design.Config) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
	dst = append(dst, e.Name...)
	dst = binary.AppendUvarint(dst, e.gen)
	for _, v := range [...]int{q.PipeDepth, q.ROBSize, q.IQSize, q.LSQSize,
		q.L2SizeKB, q.L2Lat, q.IL1SizeKB, q.DL1SizeKB, q.DL1Lat} {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// predictBatchChunk is how many configurations one worker scores per
// vectorized call when a large batch is split across the pool.
const predictBatchChunk = 256

// predictBatch scores a batch of configurations; the coalescer and
// explicit batches share it. Every input is clamped and quantized
// through the model's design space (the same Decode∘Encode mapping used
// on the training sample), what the LRU already holds is served from
// it, and all cache misses are evaluated in one blocked design-matrix
// pass of the compiled RBF network (chunked across the worker pool when
// the miss set is large — fixed slots, so results are deterministic and
// bit-identical to scalar Model.PredictConfig). The cache key is the
// quantized machine, so raw inputs that snap to the same design point
// share an entry. Shadow monitoring sees each value after it is final
// and never touches the prediction: the served response is
// byte-identical with sampling on or off.
func (s *Server) predictBatch(e *Entry, cfgs []design.Config) []prediction {
	m := e.Model
	preds := make([]prediction, len(cfgs))
	missIdx := make([]int, 0, len(cfgs))
	missXs := make([][]float64, 0, len(cfgs))
	quant := make([]design.Config, len(cfgs))
	var kb [64]byte
	for i, cfg := range cfgs {
		q := m.Space.Decode(m.Space.Encode(cfg), m.SampleSize)
		quant[i] = q
		preds[i] = prediction{Config: cluster.FromConfig(q), Clamped: q != cfg}
		if v, ok := s.cache.Get(cacheKey(kb[:0], e, q)); ok {
			cCacheHits.Inc()
			preds[i].Value, preds[i].Cached = v, true
			s.shadow.offer(e, q, v)
			continue
		}
		cCacheMiss.Inc()
		missIdx = append(missIdx, i)
		missXs = append(missXs, m.Space.Encode(q))
	}
	if len(missIdx) == 0 {
		return preds
	}
	vals := make([]float64, len(missXs))
	cm := m.Fit.Compiled()
	chunks := (len(missXs) + predictBatchChunk - 1) / predictBatchChunk
	par.For(par.Workers(0), chunks, func(ci int) {
		lo := ci * predictBatchChunk
		hi := lo + predictBatchChunk
		if hi > len(missXs) {
			hi = len(missXs)
		}
		cm.PredictBatchTo(vals[lo:hi], missXs[lo:hi])
	})
	for a, i := range missIdx {
		q := quant[i]
		preds[i].Value = vals[a]
		s.cache.Put(cacheKey(kb[:0], e, q), vals[a])
		s.shadow.offer(e, q, vals[a])
	}
	return preds
}

// ---- /v1/search ----

// A search sizes its shortlist and its candidate grid from the request,
// so both are bounded before anything is allocated. The grid cap admits
// the paper space at grid_levels 5, 1,000,000 raw points.
const (
	maxSearchShortlist  = 64
	maxSearchGridPoints = 1_000_000
)

type searchRequest struct {
	Model string `json:"model"`
	// GridLevels caps the per-parameter enumeration resolution
	// (default 4, the search package's default).
	GridLevels int `json:"grid_levels"`
	// Shortlist is how many best-predicted candidates are verified
	// (default 8).
	Shortlist int `json:"shortlist"`
	// Verify selects shortlist verification: "sim" demands the
	// cycle-level simulator on the model's own trace and metric (error
	// if the model names no benchmark or trace length), "model" skips
	// simulation, "auto" (default) prefers the simulator and falls back
	// to the model.
	Verify string `json:"verify"`
}

type searchCandidate struct {
	Config    cluster.WireConfig `json:"config"`
	Predicted float64            `json:"predicted"`
	Actual    float64            `json:"actual"`
}

type searchResponse struct {
	Model      string            `json:"model"`
	Best       searchCandidate   `json:"best"`
	Evaluated  int               `json:"evaluated"`
	Verified   int               `json:"verified"`
	VerifiedBy string            `json:"verified_by"` // "simulator" or "model"
	Shortlist  []searchCandidate `json:"shortlist"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodPost) {
		return
	}
	ctx, end := obs.StartSpanCtx(r.Context(), "serve.search")
	defer end()
	var req searchRequest
	if !role.ReadJSON(w, r, s.opt.MaxBodyBytes, &req) {
		return
	}
	if req.Model == "" {
		role.WriteErr(w, http.StatusBadRequest, "bad_request", `"model" is required`)
		return
	}
	if req.Shortlist > maxSearchShortlist {
		role.WriteErr(w, http.StatusBadRequest, "bad_request",
			`"shortlist" must be at most %d, got %d`, maxSearchShortlist, req.Shortlist)
		return
	}
	entry, ok := s.reg.Get(req.Model)
	if !ok {
		role.WriteErr(w, http.StatusNotFound, "unknown_model",
			"no model %q is loaded (GET /v1/models lists the registry)", req.Model)
		return
	}
	if n, ok := search.GridPoints(entry.Model.Space, req.GridLevels); !ok || n > maxSearchGridPoints {
		role.WriteErr(w, http.StatusBadRequest, "bad_request",
			`"grid_levels" %d makes a grid past %d points`, req.GridLevels, maxSearchGridPoints)
		return
	}
	var (
		ev         core.Evaluator
		verifiedBy string
	)
	switch req.Verify {
	case "", "auto":
		if sim, err := entry.simEvaluator(); err == nil {
			ev, verifiedBy = sim, "simulator"
		} else {
			ev, verifiedBy = modelEvaluator{entry.Model}, "model"
		}
	case "sim":
		sim, err := entry.simEvaluator()
		if err != nil {
			role.WriteErr(w, http.StatusBadRequest, "no_simulator",
				"model %q cannot be simulator-verified: %v", req.Model, err)
			return
		}
		ev, verifiedBy = sim, "simulator"
	case "model":
		ev, verifiedBy = modelEvaluator{entry.Model}, "model"
	default:
		role.WriteErr(w, http.StatusBadRequest, "bad_request",
			`"verify" must be "auto", "sim", or "model", got %q`, req.Verify)
		return
	}
	cSearches.Inc()
	// A pool-backed evaluator is re-bound to the request context so its
	// worker hops carry this request's trace (or its unsampled identity).
	if b, ok := ev.(interface {
		Bind(context.Context) core.Evaluator
	}); ok {
		ev = b.Bind(ctx)
	}
	res, err := search.Minimize(entry.Model, ev, search.Options{
		Space:      entry.Model.Space,
		GridLevels: req.GridLevels,
		Shortlist:  req.Shortlist,
	})
	if err != nil {
		role.WriteErr(w, http.StatusUnprocessableEntity, "search_failed", "%v", err)
		return
	}
	resp := searchResponse{
		Model:      req.Model,
		Evaluated:  res.Evaluated,
		Verified:   res.Verified,
		VerifiedBy: verifiedBy,
	}
	for _, c := range res.Shortlist {
		resp.Shortlist = append(resp.Shortlist, searchCandidate{
			Config: cluster.FromConfig(c.Config), Predicted: c.Predicted, Actual: c.Actual,
		})
	}
	resp.Best = searchCandidate{
		Config:    cluster.FromConfig(res.Best),
		Predicted: entry.Model.PredictConfig(res.Best),
		Actual:    res.BestValue,
	}
	role.WriteJSON(w, http.StatusOK, resp)
}
