package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"predperf/internal/design"
	"predperf/internal/obs"
)

// Shadow drift monitoring: the paper validates the RBF surrogate against
// a simulator-generated test set once, at build time (§3.4); a serving
// process needs that check to keep running. The monitor deterministically
// samples a fraction of served predictions — by hashing the (model,
// quantized config) pair, so the decision is a pure function of the
// served point and replayable offline — and re-evaluates each sampled
// point on the cycle-level simulator in a bounded background worker
// pool. The paper's error metric, 100·|pred−actual|/actual, lands in a
// per-model histogram with a sliding-window view; a model whose windowed
// mean error exceeds the configured threshold trips the drift alert and
// flips /readyz.
//
// The monitor never perturbs serving: sampling happens after the
// response value is computed, the enqueue is non-blocking (a full queue
// drops the sample and counts it), and the simulator cache keyed on the
// config means re-sampled hot points cost one simulation total.

var (
	cShadowSamples = obs.NewCounter("serve.shadow_samples")
	cShadowDropped = obs.NewCounter("serve.shadow_dropped")
	cShadowSimFail = obs.NewCounter("serve.shadow_sim_failures")
	// hShadowErr buckets the percent prediction error: 0.01% up to
	// ~84000%, factor 2 — fine resolution around the paper's 2–3% mean.
	hShadowErr = obs.NewHistogramVec("serve.shadow_error_pct", shadowErrBuckets, "model")
)

var shadowErrBuckets = obs.ExponentialBuckets(0.01, 2, 23)

const (
	// shadowWorkers is the background simulation pool size.
	shadowWorkers = 1
	// shadowQueue bounds the pending-sample queue; a full queue drops
	// samples instead of blocking the predict path.
	shadowQueue = 1024
	// shadowMinSamples is how many windowed samples a model needs
	// before drift can fire.
	shadowMinSamples = 10
)

// shadowJob is one sampled prediction awaiting simulator verification.
type shadowJob struct {
	entry     *Entry
	cfg       design.Config // quantized, as served
	predicted float64
}

// shadowModelStats is the per-model accounting: the cumulative error
// histogram child and its sliding-window view.
type shadowModelStats struct {
	hist *obs.Histogram
	win  *obs.WindowedHistogram
}

// shadowMonitor owns the sampling decision, the bounded queue, the
// worker pool, and the per-model drift state.
type shadowMonitor struct {
	frac     float64
	limit    uint64 // sampling threshold in FNV-64a hash space
	traceLen int
	errPct   float64 // windowed mean error (percent) above which a model drifts
	clock    obs.Clock

	queue    chan shadowJob
	jobs     sync.WaitGroup
	stopOnce sync.Once

	// mu guards the per-model map AND the closed flag. offer holds the
	// read lock across its queue send while stop flips closed under the
	// write lock before closing the queue, so a straggler handler that
	// outlives the HTTP drain deadline can never send on a closed
	// channel — its sample is dropped and counted instead.
	mu     sync.RWMutex
	closed bool
	models map[string]*shadowModelStats
	order  []string
}

// shadowLimit converts a sampling fraction into the inclusive FNV-64a
// threshold. The product frac·2⁶⁴ is clamped below 2⁶⁴ before the
// float→uint64 conversion: converting a float64 at or above 2⁶⁴ is
// implementation-defined in Go (amd64 saturates differently from
// arm64), so the clamp keeps the threshold portable for fractions just
// below 1. float64(math.MaxUint64) rounds to exactly 2⁶⁴.
func shadowLimit(frac float64) uint64 {
	if frac >= 1 {
		return math.MaxUint64
	}
	if frac <= 0 {
		return 0
	}
	f := frac * float64(math.MaxUint64)
	if f >= float64(math.MaxUint64) {
		return math.MaxUint64
	}
	return uint64(f)
}

// newShadowMonitor builds (and starts) the monitor. A fraction <= 0
// returns a disabled monitor: every method is a cheap no-op.
func newShadowMonitor(opt Options, clock obs.Clock) *shadowMonitor {
	m := &shadowMonitor{
		frac:     opt.ShadowFraction,
		traceLen: opt.SearchTraceLen,
		errPct:   opt.ShadowErrPct,
		clock:    clock,
		models:   map[string]*shadowModelStats{},
	}
	if opt.ShadowFraction <= 0 {
		return m
	}
	m.limit = shadowLimit(opt.ShadowFraction)
	m.queue = make(chan shadowJob, shadowQueue)
	for i := 0; i < shadowWorkers; i++ {
		go m.run()
	}
	return m
}

func (m *shadowMonitor) enabled() bool { return m != nil && m.queue != nil }

// sampled reports whether the (model, quantized config) pair falls
// inside the shadow fraction. FNV-64a over the same key material the
// prediction cache quantizes on, so the decision is deterministic,
// independent of traffic order, and replayable.
func (m *shadowMonitor) sampled(model string, q design.Config) bool {
	if !m.enabled() {
		return false
	}
	if m.frac >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(q.Key()))
	return h.Sum64() <= m.limit
}

// offer enqueues a served prediction for shadow verification if it is
// sampled. Never blocks: a full queue drops the sample and increments
// serve.shadow_dropped, so a slow simulator can never back-pressure the
// predict path. Safe to call concurrently with (and after) stop: a
// straggler handler still in flight past the shutdown drain deadline
// has its sample dropped and counted instead of panicking on a send to
// the closed queue.
func (m *shadowMonitor) offer(e *Entry, q design.Config, predicted float64) {
	if !m.sampled(e.Name, q) {
		return
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		cShadowDropped.Inc()
		return
	}
	m.jobs.Add(1)
	select {
	case m.queue <- shadowJob{entry: e, cfg: q, predicted: predicted}:
	default:
		m.jobs.Done()
		cShadowDropped.Inc()
	}
}

func (m *shadowMonitor) run() {
	for job := range m.queue {
		m.process(job)
		m.jobs.Done()
	}
}

// process runs the cycle-level simulator on one sampled point — the
// bit-identical evaluator path the model was validated against at build
// time — and records the percent error.
func (m *shadowMonitor) process(job shadowJob) {
	sim, err := job.entry.simEvaluator(m.traceLen)
	if err != nil {
		cShadowSimFail.Inc()
		return
	}
	actual := sim.Eval(job.cfg)
	if actual == 0 || math.IsNaN(actual) {
		cShadowSimFail.Inc()
		return
	}
	errPct := 100 * math.Abs(job.predicted-actual) / math.Abs(actual)
	m.stats(job.entry.Name).hist.Observe(errPct)
	cShadowSamples.Inc()
}

// stats returns (creating on first use) the per-model accounting.
func (m *shadowMonitor) stats(model string) *shadowModelStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.models[model]
	if !ok {
		st = &shadowModelStats{
			hist: hShadowErr.With(model),
			win:  obs.WindowHistogramIn(hShadowErr, m.clock, model),
		}
		m.models[model] = st
		m.order = append(m.order, model)
	}
	return st
}

// modelStats returns the per-model accounting if any sample for the
// model has been processed.
func (m *shadowMonitor) modelStats(model string) (*shadowModelStats, bool) {
	if m == nil {
		return nil, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.models[model]
	return st, ok
}

// resetModel forgets the model's windowed drift history: the retrain
// controller calls it after hot-swapping a retrained model so samples
// of the replaced generation stop counting against the new one (and
// drift clears immediately instead of after the slow window drains).
// The cumulative error histogram is untouched.
func (m *shadowMonitor) resetModel(model string) {
	if st, ok := m.modelStats(model); ok {
		st.win.Rebase()
	}
}

// driftState is one model's drift evaluation over the slow (1h) window.
type driftState struct {
	Model   string  `json:"model"`
	Samples int64   `json:"samples"`
	MeanPct float64 `json:"mean_error_pct"`
	Firing  bool    `json:"firing"`
}

// driftStates evaluates every model the monitor has samples for, sorted
// by model name. A model fires when its windowed mean error exceeds the
// threshold with at least shadowMinSamples observations in the window.
func (m *shadowMonitor) driftStates() []driftState {
	if !m.enabled() {
		return nil
	}
	m.mu.RLock()
	names := make([]string, len(m.order))
	copy(names, m.order)
	m.mu.RUnlock()
	sort.Strings(names)
	out := make([]driftState, 0, len(names))
	for _, name := range names {
		st, _ := m.modelStats(name)
		if st == nil {
			continue
		}
		d := driftState{
			Model:   name,
			Samples: st.win.CountOver(obs.DefSlowWindow),
			MeanPct: st.win.MeanOver(obs.DefSlowWindow),
		}
		d.Firing = m.errPct > 0 && d.Samples >= shadowMinSamples && d.MeanPct > m.errPct
		out = append(out, d)
	}
	return out
}

func (d driftState) reason() string {
	return fmt.Sprintf("model %q: mean shadow error %.2f%% over %s (%d samples)",
		d.Model, d.MeanPct, obs.WindowLabel(obs.DefSlowWindow), d.Samples)
}

// drain blocks until every offered sample has been processed or
// dropped — test and shutdown hook, not a serving-path call.
func (m *shadowMonitor) drain() {
	if m.enabled() {
		m.jobs.Wait()
	}
}

// stop closes the queue; workers exit after finishing in-flight jobs.
// Offers racing (or arriving after) stop are safe: the closed flag is
// flipped under the write lock before the queue closes, so concurrent
// offers either complete their send first or observe closed and drop.
func (m *shadowMonitor) stop() {
	if m.enabled() {
		m.stopOnce.Do(func() {
			m.mu.Lock()
			m.closed = true
			m.mu.Unlock()
			close(m.queue)
		})
	}
}
