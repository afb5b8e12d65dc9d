package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"predperf/internal/core"
	"predperf/internal/obs"
)

// Closed-loop model lifecycle: the paper's §6 iterative escalation
// (build at increasing sample sizes until the test-set error target is
// met) run as an always-on production loop instead of a one-shot
// offline call. The shadow monitor measures live model error; when a
// model's drift alert fires for a sustained period, the retrain
// controller rebuilds it against the same simulator evaluator at
// escalated sample sizes (strictly above the serving model's — the
// escalation resumes, it does not start over) and hot-loads the winner
// through the generation-keyed registry. In-flight predictions keep the
// entry they resolved, the LRU cache keys on the generation, so the
// swap is atomic per request with zero downtime and zero stale hits.
//
// Production hygiene: retrains are single-flight per model, one at a
// time process-wide (retrainMaxConcurrent), built with a bounded
// internal/par worker budget (RetrainWorkers) so background builds
// cannot starve the serving CPUs, followed by a cooldown after success
// AND failure so a model that cannot be fixed does not hot-loop the
// simulator, and persisted atomically (temp file + rename) back into
// the model directory so a restart serves the new generation.
var (
	cRetrains = obs.NewCounterVec("serve.retrains", "model", "outcome")
)

// Retrain outcomes (the "outcome" label on serve.retrains).
const (
	retrainOutcomeSuccess       = "success"
	retrainOutcomeBuildFailed   = "build_failed"
	retrainOutcomeNoEvaluator   = "no_evaluator"
	retrainOutcomePersistFailed = "persist_failed"
	retrainOutcomeSwapFailed    = "swap_failed"
	retrainOutcomeCanceled      = "canceled"
)

const (
	// retrainMaxConcurrent bounds simultaneous retrains across all
	// models.
	retrainMaxConcurrent = 1
	// retrainCooldown is the per-model pause after a retrain finishes —
	// success or failure — before another may start.
	retrainCooldown = 10 * time.Minute
)

// retrainTestSeed seeds the controller's validation test sets. Fixed,
// so successive retrains of one model share test points (and therefore
// share memoized simulations in the entry's evaluator cache).
const retrainTestSeed = 20260807

// retrainState is one model's lifecycle state as exposed on /alertz and
// /statusz.
type retrainState struct {
	Model       string `json:"model"`
	Status      string `json:"status"` // idle | drift_pending | retraining | cooldown
	Attempts    int64  `json:"attempts"`
	Generation  uint64 `json:"generation,omitempty"`
	FiringSince string `json:"firing_since,omitempty"`
	Cooldown    string `json:"cooldown_until,omitempty"`
	LastOutcome string `json:"last_outcome,omitempty"`
	LastSize    int    `json:"last_size,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// retrainModel is the internal per-model accounting.
type retrainModel struct {
	firingSince   time.Time // first poll that saw the drift alert firing
	inflight      bool
	cooldownUntil time.Time
	attempts      int64
	lastOutcome   string
	lastSize      int
	lastErr       string
}

// retrainController watches the shadow monitor's drift states on the
// injected clock and closes the loop from drift to hot-swap.
type retrainController struct {
	on         bool
	targetPct  float64
	after      time.Duration // how long drift must fire before a retrain starts
	pollEvery  time.Duration
	testPoints int
	workers    int
	traceLen   int

	reg    *Registry
	shadow *shadowMonitor
	clock  obs.Clock
	traces *obs.TraceStore // retrain traces register here (nil drops them)

	// Test seams: evaluatorFor resolves a model's simulator evaluator
	// (default Entry.simEvaluator) and build runs the escalation
	// (default core.BuildToAccuracyFromCtx).
	evaluatorFor func(e *Entry, traceLen int) (core.Evaluator, error)
	build        func(ctx context.Context, ev core.Evaluator, above int, sizes []int, targetPct float64, ts *core.TestSet, opt core.Options) ([]core.BuildResult, error)

	ctx        context.Context
	cancel     context.CancelFunc
	sem        chan struct{} // global concurrent-retrain budget
	jobs       sync.WaitGroup
	stopTicker chan struct{}
	stopOnce   sync.Once

	mu     sync.Mutex
	closed bool
	models map[string]*retrainModel
}

// newRetrainController builds the controller. Options.Retrain == false
// returns a disabled controller: every method is a cheap no-op.
func newRetrainController(opt Options, reg *Registry, shadow *shadowMonitor, clock obs.Clock) *retrainController {
	ctx, cancel := context.WithCancel(context.Background())
	c := &retrainController{
		on:         opt.Retrain,
		targetPct:  opt.RetrainTargetPct,
		after:      opt.RetrainAfter,
		pollEvery:  opt.RetrainPoll,
		testPoints: opt.RetrainTestPoints,
		workers:    opt.RetrainWorkers,
		traceLen:   opt.SearchTraceLen,
		reg:        reg,
		shadow:     shadow,
		clock:      clock,
		ctx:        ctx,
		cancel:     cancel,
		sem:        make(chan struct{}, retrainMaxConcurrent),
		stopTicker: make(chan struct{}),
		models:     map[string]*retrainModel{},
	}
	c.evaluatorFor = func(e *Entry, traceLen int) (core.Evaluator, error) {
		sim, err := e.simEvaluator(traceLen)
		if err != nil {
			return nil, err
		}
		return sim, nil
	}
	c.build = core.BuildToAccuracyFromCtx
	return c
}

func (c *retrainController) enabled() bool { return c != nil && c.on }

// start launches the background poller. The poll cadence is wall-clock
// (a ticker); every decision inside poll reads the injected obs.Clock,
// so fake-clock tests drive the controller by calling poll directly.
func (c *retrainController) start() {
	if !c.enabled() {
		return
	}
	go func() {
		t := time.NewTicker(c.pollEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stopTicker:
				return
			case <-t.C:
				c.poll()
			}
		}
	}()
}

// poll is one evaluation of every model's drift state: it starts (and
// tracks) the firing-since timestamps and kicks off retrains whose
// sustain, cooldown, single-flight, and concurrency conditions are all
// met. Called by the ticker in production and directly by tests.
func (c *retrainController) poll() {
	if !c.enabled() {
		return
	}
	now := c.clock()
	for _, d := range c.shadow.driftStates() {
		c.consider(now, d)
	}
}

// model returns (creating on first use) the per-model state. Callers
// hold c.mu.
func (c *retrainController) model(name string) *retrainModel {
	st, ok := c.models[name]
	if !ok {
		st = &retrainModel{}
		c.models[name] = st
	}
	return st
}

// consider applies the trigger conditions to one drift state and spawns
// the retrain goroutine when they all hold.
func (c *retrainController) consider(now time.Time, d driftState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	st := c.model(d.Model)
	if !d.Firing {
		st.firingSince = time.Time{}
		return
	}
	if st.firingSince.IsZero() {
		st.firingSince = now
	}
	if st.inflight || now.Sub(st.firingSince) < c.after || now.Before(st.cooldownUntil) {
		return
	}
	entry, ok := c.reg.Get(d.Model)
	if !ok {
		return // drift history for a model that was since unloaded
	}
	select {
	case c.sem <- struct{}{}:
	default:
		return // at the concurrent-retrain budget; retry next poll
	}
	st.inflight = true
	st.attempts++
	c.jobs.Add(1)
	go c.run(entry, st.attempts)
}

// run is one retrain attempt: escalate, swap, persist, account. It owns
// a semaphore slot and the model's single-flight claim.
func (c *retrainController) run(e *Entry, attempt int64) {
	defer c.jobs.Done()
	defer func() { <-c.sem }()
	// Each attempt gets its own trace, so the escalation's build spans
	// (core.build_rbf, core.sample, core.simulate, core.fit) nest under
	// serve.retrain both in the span aggregates and on the trace.
	t0 := time.Now()
	tr := obs.NewTrace(fmt.Sprintf("retrain-%s-%d", e.Name, attempt))
	ctx := obs.WithTrace(c.ctx, tr)
	ctx, end := obs.StartSpanCtx(ctx, "serve.retrain", "model", e.Name)
	outcome, size, err := c.retrain(ctx, e, attempt)
	end()
	cRetrains.With(e.Name, outcome).Inc()
	// Retrains are rare, long, and operationally interesting: every one
	// is pinned in the /tracez store (Keep), never reservoir-evicted.
	c.traces.Add(tr, obs.TraceMeta{
		ID: tr.ID(), Kind: "retrain", Route: e.Name,
		Start: t0, Dur: time.Since(t0), Err: err != nil, Keep: true,
	})

	now := c.clock()
	c.mu.Lock()
	st := c.model(e.Name)
	st.inflight = false
	st.lastOutcome = outcome
	st.lastSize = size
	st.lastErr = ""
	if err != nil {
		st.lastErr = err.Error()
	}
	// Cooldown after success AND failure: a freshly swapped model needs
	// time to accumulate shadow samples before its drift state means
	// anything, and a failing build must not hot-loop the simulator.
	st.cooldownUntil = now.Add(retrainCooldown)
	st.firingSince = time.Time{}
	c.mu.Unlock()
}

// retrain performs the escalation for one entry and reports the
// outcome label, the swapped-in sample size (0 if no swap), and the
// underlying error (nil on success).
func (c *retrainController) retrain(ctx context.Context, e *Entry, attempt int64) (outcome string, size int, err error) {
	ev, err := c.evaluatorFor(e, c.traceLen)
	if err != nil {
		return retrainOutcomeNoEvaluator, 0, err
	}
	// A fresh independent test set in the serving model's space drives
	// the escalation's stopping rule, exactly as in the paper; its
	// simulations are memoized in the evaluator shared with the shadow
	// monitor, so repeated attempts re-simulate nothing.
	ts := core.NewTestSetWorkers(ev, e.Model.Space, c.testPoints, retrainTestSeed, c.workers)
	opt := core.Options{
		Space:    e.Model.Space,
		Parallel: c.workers,
		// A per-attempt seed draws a fresh space-filling sample each
		// time: retraining exists because the served workload moved, so
		// reproducing the previous sample verbatim is the one thing the
		// loop must not do.
		Seed: retrainTestSeed + attempt,
	}
	results, err := c.build(ctx, ev, e.Model.SampleSize, sizesFor(e.Model.SampleSize), c.targetPct, ts, opt)
	if len(results) == 0 || (err != nil && ctx.Err() != nil) {
		if ctx.Err() != nil {
			return retrainOutcomeCanceled, 0, ctx.Err()
		}
		if err == nil {
			err = fmt.Errorf("serve: retrain built no model")
		}
		return retrainOutcomeBuildFailed, 0, err
	}
	// Best result: lowest mean test error (later size wins ties — more
	// data at equal accuracy generalizes better).
	best := results[0]
	for _, r := range results[1:] {
		if r.Stats.Mean <= best.Stats.Mean {
			best = r
		}
	}
	m := best.Model
	m.Name = e.Model.Name // keep the benchmark identity across generations

	// Swap before persisting: serving the freshest model wins over disk
	// consistency, and a persist failure is reported, not fatal.
	path := c.persistPath(e)
	if err := c.reg.Add(e.Name, m, path); err != nil {
		return retrainOutcomeSwapFailed, 0, err
	}
	// The swapped-in generation starts with a clean drift window:
	// samples of the replaced model must not count against it.
	c.shadow.resetModel(e.Name)
	if path != "" {
		if err := saveModelAtomic(m, path); err != nil {
			return retrainOutcomePersistFailed, m.SampleSize, err
		}
	}
	return retrainOutcomeSuccess, m.SampleSize, nil
}

// sizesFor is the escalation ladder for a model currently serving at
// base: 2×, 3× and 4× its sample size, so escalation always has
// somewhere to go.
func sizesFor(base int) []int { return []int{2 * base, 3 * base, 4 * base} }

// persistPath is where the retrained model lands on disk: the file the
// serving model was loaded from, else <model-dir>/<name>.json, else ""
// (in-process registration with no model dir — nothing to persist).
func (c *retrainController) persistPath(e *Entry) string {
	if e.Path != "" {
		return e.Path
	}
	if c.reg.dir != "" {
		return filepath.Join(c.reg.dir, e.Name+".json")
	}
	return ""
}

// saveModelAtomic persists m at path via temp file + rename in the
// destination directory, so a concurrent restart loads either the old
// or the new generation — never a torn file.
func saveModelAtomic(m *core.Model, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".retrain-*.json")
	if err != nil {
		return fmt.Errorf("serve: persisting retrained model: %w", err)
	}
	tmp := f.Name()
	if err := m.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: persisting retrained model: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: persisting retrained model: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: persisting retrained model: %w", err)
	}
	return nil
}

// inflightCount reports how many retrains are running (the
// serve.retrains_inflight gauge).
func (c *retrainController) inflightCount() int {
	if !c.enabled() {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.models {
		if st.inflight {
			n++
		}
	}
	return n
}

// notes are the non-failing /readyz annotations: a retraining model is
// news an operator wants in the readiness body, but it must never flip
// readiness by itself.
func (c *retrainController) notes() []unreadyReason {
	if !c.enabled() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.models))
	for name, st := range c.models {
		if st.inflight {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []unreadyReason
	for _, name := range names {
		st := c.models[name]
		out = append(out, unreadyReason{
			Code: "retraining",
			Message: fmt.Sprintf("model %q: retraining in progress (attempt %d, drift sustained since %s)",
				name, st.attempts, st.firingSince.UTC().Format(time.RFC3339)),
		})
	}
	return out
}

// states snapshots every model the controller has tracked, sorted by
// name — the /alertz "retrains" block and the /statusz table.
func (c *retrainController) states() []retrainState {
	if !c.enabled() {
		return nil
	}
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.models))
	for name := range c.models {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]retrainState, 0, len(names))
	for _, name := range names {
		st := c.models[name]
		s := retrainState{
			Model:       name,
			Status:      "idle",
			Attempts:    st.attempts,
			LastOutcome: st.lastOutcome,
			LastSize:    st.lastSize,
			LastError:   st.lastErr,
		}
		switch {
		case st.inflight:
			s.Status = "retraining"
		case !st.firingSince.IsZero():
			s.Status = "drift_pending"
		case now.Before(st.cooldownUntil):
			s.Status = "cooldown"
		}
		if !st.firingSince.IsZero() {
			s.FiringSince = st.firingSince.UTC().Format(time.RFC3339)
		}
		if now.Before(st.cooldownUntil) {
			s.Cooldown = st.cooldownUntil.UTC().Format(time.RFC3339)
		}
		if e, ok := c.reg.Get(name); ok {
			s.Generation = e.Generation()
		}
		out = append(out, s)
	}
	return out
}

// wait blocks until every in-flight retrain has finished — a test and
// shutdown hook, not a serving-path call.
func (c *retrainController) wait() {
	if c.enabled() {
		c.jobs.Wait()
	}
}

// stop refuses new retrains, cancels the escalation (which stops at the
// next sample-size boundary), and waits for in-flight attempts to wind
// down. Called by Server.Shutdown after the HTTP drain, before the
// coalescer and shadow workers stop.
func (c *retrainController) stop() {
	if !c.enabled() {
		return
	}
	c.stopOnce.Do(func() {
		close(c.stopTicker)
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.cancel()
		c.jobs.Wait()
	})
}
