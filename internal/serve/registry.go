package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"predperf/internal/core"
	"predperf/internal/design"
	"predperf/internal/obs"
	"predperf/internal/trace"
)

// Entry is one loaded model in the registry. The simulator evaluator
// that /v1/search verifies shortlists with and the shadow monitor
// re-simulates on is built lazily, because building it generates a
// benchmark trace.
type Entry struct {
	Name  string      // registry key
	Model *core.Model // the fitted model (read-only once registered)
	Path  string      // file the model was loaded from ("" if registered in-process)

	// gen distinguishes successive holders of the same registry name.
	// The prediction cache keys on it, so a hot-reload retires every
	// cached value computed by the replaced model instead of serving
	// them as stale hits.
	gen uint64

	// Lazy simulator evaluator. Success is memoized forever; a FAILED
	// construction is memoized only until simRetryBackoff elapses, so a
	// transient trace-load failure cannot permanently disable shadow
	// verification or sim-verified search for the entry — while a
	// truly-missing benchmark retries at a bounded rate instead of
	// hot-looping.
	simMu      sync.Mutex
	simEv      core.Evaluator
	simErr     error
	simLastTry time.Time
	now        func() time.Time // test hook; nil means time.Now

	// evalFactory builds the entry's evaluator (nil means the local
	// cycle-level simulator). The registry stamps it at Add time, so a
	// server configured with a sim-worker pool transparently fans every
	// simulator consumer — search verification and shadow
	// re-simulation — out to the farm.
	evalFactory EvalFactory
}

// EvalFactory builds an evaluator of metric for a benchmark at a trace
// length. The default simulates in-process (newSimEvaluator); a
// cluster-backed server swaps in a factory returning
// cluster.RemoteEvaluator views.
type EvalFactory func(benchmark string, traceLen int, metric core.Metric) (core.Evaluator, error)

// Generation reports which holder of the registry name this entry is.
// It increases monotonically across the whole registry: every Add (a
// load or a hot load) stamps a fresh generation, and the prediction
// cache keys on it.
func (e *Entry) Generation() uint64 { return e.gen }

// simRetryBackoff bounds how often a failed evaluator construction is
// retried. Construction failures are usually transient (an unreadable
// trace file mid-rewrite); retrying on the next call after a short
// backoff restores shadow verification without manual intervention.
const simRetryBackoff = 5 * time.Second

// newSimEvaluator is the in-process EvalFactory: an evaluator on a
// trace generated for it, so the trace lives exactly as long as the
// entry that holds the evaluator. A package variable so tests can
// inject transient construction failures.
var newSimEvaluator EvalFactory = func(benchmark string, traceLen int, metric core.Metric) (core.Evaluator, error) {
	tr, err := trace.Named(benchmark, traceLen)
	if err != nil {
		return nil, err
	}
	return core.NewTraceEvaluator(benchmark, tr).WithMetric(metric), nil
}

// simEvaluator returns the entry's simulator evaluator, building it on
// first use for the simulation the model was built on: its benchmark
// name, trace length and metric. A model that names no benchmark
// workload or no trace length returns an error; /v1/search then falls
// back to model-verified search. Construction errors are retried after
// simRetryBackoff (see the Entry field docs); concurrent callers
// single-flight on the entry's mutex.
func (e *Entry) simEvaluator() (core.Evaluator, error) {
	e.simMu.Lock()
	defer e.simMu.Unlock()
	if e.simEv != nil {
		return e.simEv, nil
	}
	if e.Model.Name == "" {
		return nil, fmt.Errorf("serve: model %q carries no benchmark name", e.Name)
	}
	if e.Model.TraceLen <= 0 {
		return nil, fmt.Errorf("serve: model %q names no trace length; rebuild it with predperf to verify it on the simulator", e.Name)
	}
	clock := e.now
	if clock == nil {
		clock = time.Now
	}
	if e.simErr != nil && clock().Sub(e.simLastTry) < simRetryBackoff {
		return nil, e.simErr
	}
	e.simLastTry = clock()
	factory := e.evalFactory
	if factory == nil {
		factory = newSimEvaluator
	}
	// Assign through locals: a failed factory must leave simEv nil, not
	// an interface wrapping a typed nil pointer (which would satisfy the
	// memoization check above and serve a dead evaluator forever).
	ev, err := factory(e.Model.Name, e.Model.TraceLen, e.Model.Metric)
	if err != nil {
		e.simErr = err
		return nil, err
	}
	e.simEv, e.simErr = ev, nil
	return ev, nil
}

// modelEvaluator verifies a search shortlist with the model itself,
// the fallback when an entry has no simulator-backed workload. The
// "verification" is then a no-op ranking confirmation: predicted and
// actual coincide by construction.
type modelEvaluator struct{ m *core.Model }

func (e modelEvaluator) Eval(cfg design.Config) float64 { return e.m.PredictConfig(cfg) }

// Registry is the named, RWMutex-guarded set of models the server can
// predict against. Reads (every predict) take the read lock only; hot
// loads take the write lock for the map insert.
type Registry struct {
	mu      sync.RWMutex
	models  map[string]*Entry
	gen     uint64 // monotonic entry generation, bumped on every Add
	dir     string // base for relative load paths
	factory EvalFactory
}

// NewRegistry returns an empty registry. dir, when non-empty, anchors
// relative paths given to LoadFile and is scanned by LoadDir.
func NewRegistry(dir string) *Registry {
	return &Registry{models: map[string]*Entry{}, dir: dir}
}

// Add registers a model under name, replacing any previous holder of
// the name. It validates the parts of the model the request path
// depends on — including that the design space carries all nine paper
// parameters — so a handler can assume a registered model predicts
// without panicking.
func (r *Registry) Add(name string, m *core.Model, path string) error {
	if err := validateModel(name, m); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	r.models[name] = &Entry{Name: name, Model: m, Path: path, gen: r.gen, evalFactory: r.factory}
	return nil
}

// SetEvalFactory makes every subsequently added entry build its
// simulator evaluator through factory instead of the in-process
// default. Call it before loading models (cmd/predserve wires it from
// -sim-workers before any load).
func (r *Registry) SetEvalFactory(factory EvalFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factory = factory
}

// validateModel checks everything the predict path assumes about a
// model, so registration — not the first prediction — is where a bad
// model file fails. Decode/Encode panic on spaces missing a paper
// parameter; CheckDecodable turns that into a structured error.
func validateModel(name string, m *core.Model) error {
	if name == "" {
		return fmt.Errorf("serve: model name must not be empty")
	}
	if m == nil || m.Fit == nil || m.Space == nil || m.Space.N() == 0 {
		return fmt.Errorf("serve: model %q is missing its fit or design space", name)
	}
	if err := m.Space.CheckDecodable(); err != nil {
		return fmt.Errorf("serve: model %q cannot predict: %w", name, err)
	}
	return nil
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	return e, ok
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.models))
	for name := range r.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Entries snapshots the registry, sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// resolve anchors a relative model path at the registry's model dir.
func (r *Registry) resolve(path string) string {
	if r.dir != "" && !filepath.IsAbs(path) {
		return filepath.Join(r.dir, path)
	}
	return path
}

// readModel opens and parses a model file without touching the
// registry. The returned name is, in order of preference: the explicit
// name argument, the model's persisted benchmark name, the file's base
// name without extension. full must already be a complete path (see
// resolve).
func readModel(full, name string) (string, *core.Model, error) {
	f, err := os.Open(full)
	if err != nil {
		return "", nil, fmt.Errorf("serve: loading model: %w", err)
	}
	defer f.Close()
	m, err := core.LoadModel(f)
	if err != nil {
		return "", nil, fmt.Errorf("serve: loading model %s: %w", full, err)
	}
	if name == "" {
		name = m.Name
	}
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(full), filepath.Ext(full))
	}
	return name, m, nil
}

// LoadFile reads a model persisted with core.Model.Save and registers
// it. The registry name is, in order of preference: the explicit name
// argument, the model's persisted benchmark name, the file's base name
// without extension. Returns the name the model was registered under.
func (r *Registry) LoadFile(path, name string) (string, error) {
	_, end := obs.StartSpanCtx(context.Background(), "serve.load")
	defer end()
	full := r.resolve(path)
	name, m, err := readModel(full, name)
	if err != nil {
		return "", err
	}
	if err := r.Add(name, m, full); err != nil {
		return "", err
	}
	cModelLoads.Inc()
	return name, nil
}

// LoadDir loads every *.json model in dir (the registry's configured
// dir when dir is empty) and returns the registered names. The load is
// all-or-nothing: every file is parsed and validated before the first
// model is registered, so a failing file leaves the registry exactly as
// it was.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	_, end := obs.StartSpanCtx(context.Background(), "serve.load")
	defer end()
	if dir == "" {
		dir = r.dir
	}
	if dir == "" {
		return nil, fmt.Errorf("serve: no model directory configured")
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	type staged struct {
		name, path string
		m          *core.Model
	}
	stage := make([]staged, 0, len(paths))
	for _, p := range paths {
		name, m, err := readModel(p, "")
		if err == nil {
			err = validateModel(name, m)
		}
		if err != nil {
			return nil, fmt.Errorf("%w (no models were registered)", err)
		}
		stage = append(stage, staged{name: name, path: p, m: m})
	}
	names := make([]string, 0, len(stage))
	for _, st := range stage {
		if err := r.Add(st.name, st.m, st.path); err != nil {
			return names, err
		}
		cModelLoads.Inc()
		names = append(names, st.name)
	}
	return names, nil
}

// ClientPath validates a path supplied over HTTP: hot-loading is
// confined to the registry's model directory, so the path must be
// relative and must still be inside the directory once cleaned.
// Returns the cleaned path, which resolve anchors at the model dir.
func (r *Registry) ClientPath(path string) (string, error) {
	if r.dir == "" {
		return "", fmt.Errorf("serve: hot-loading is disabled: the server has no model directory")
	}
	if filepath.IsAbs(path) {
		return "", fmt.Errorf("serve: absolute load paths are not allowed; give a path relative to the model directory")
	}
	clean := filepath.Clean(path)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("serve: load path %q escapes the model directory", path)
	}
	return clean, nil
}
