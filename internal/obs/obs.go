// Package obs is the zero-dependency observability layer of the
// model-building pipeline and the serving stack. It provides named
// counters (lock-free atomic adds, safe to leave in hot paths), labeled
// counter families, gauges (set-point and callback-backed), fixed-bucket
// log-spaced latency histograms with quantile estimation, per-stage span
// timers (gated by a global enable flag so the disabled path costs one
// atomic load), request/run-scoped traces exportable as Chrome
// trace-event JSON (trace.go), a structured run report (report.go), and
// Prometheus text exposition (prom.go).
//
// Instrumentation never perturbs results: counters, histograms, and
// spans only record what happened, and every parallel stage of the
// pipeline keeps writing results to fixed slots exactly as before. The
// determinism guarantees of internal/par therefore hold with
// observability enabled or disabled, and with or without an active
// trace.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates span timing and progress emission. Counters, gauges and
// histograms stay live regardless — an uncontended atomic add is cheap
// enough to leave in hot paths — but time.Now calls and span-map updates
// only happen when a sink (report, progress, or serving /metricz) has
// been requested.
var enabled atomic.Bool

// Enable turns on span timing. The CLIs call it when -report, -progress
// or -pprof is given; predserve calls it at startup; tests call it
// directly.
func Enable() { enabled.Store(true) }

// Disable returns to the zero-overhead path (counters keep counting).
func Disable() { enabled.Store(false) }

// Enabled reports whether span timing is active.
func Enabled() bool { return enabled.Load() }

// Label is one name=value pair attached to a metric by a labeled family
// (CounterVec, HistogramVec).
type Label struct {
	Key   string
	Value string
}

// labelString renders labels as `{k="v",k2="v2"}`, or "" when unlabeled.
// The rendering doubles as the stable suffix of a metric's display name
// in reports and progress lines.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// registry holds every named metric. Lookups go through the byName map
// (duplicate registration is O(1), not a linear scan), while order keeps
// creation order so reports and the Prometheus exposition are stable.
// Spans appear lazily the first time a name is timed.
var registry struct {
	mu     sync.Mutex
	byName map[string]any // *Counter | *CounterVec | *Gauge | *GaugeFunc | *Histogram | *HistogramVec
	order  []any          // creation order of the values in byName
	spans  map[string]*spanStats
	start  time.Time
}

func init() {
	registry.byName = map[string]any{}
	registry.spans = map[string]*spanStats{}
	registry.start = time.Now()
}

// lookup registers a metric under name, or returns the existing one.
// Registering the same name as two different metric kinds is a
// programming error and panics immediately rather than splitting or
// shadowing a series.
func lookup[T any](name string, mk func() T) T {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if m, ok := registry.byName[name]; ok {
		t, ok := m.(T)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
		}
		return t
	}
	t := mk()
	registry.byName[name] = t
	registry.order = append(registry.order, t)
	return t
}

// Counter is a named monotonic counter. Add and Inc are single atomic
// adds with no branching, so instrumented hot paths pay nothing
// measurable whether or not a sink is attached. Counters created by a
// CounterVec additionally carry labels.
type Counter struct {
	name   string
	labels []Label
	v      atomic.Int64
}

// NewCounter registers a named counter. Call it once per name from a
// package-level var; duplicate names return the existing counter so an
// accidental double registration cannot split counts.
func NewCounter(name string) *Counter {
	return lookup(name, func() *Counter { return &Counter{name: name} })
}

// Name returns the counter's registered name (without labels).
func (c *Counter) Name() string { return c.name }

// Labels returns the counter's labels (nil for plain counters).
func (c *Counter) Labels() []Label { return c.labels }

// displayName is the report/progress key: name plus rendered labels.
func (c *Counter) displayName() string { return c.name + labelString(c.labels) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a family of counters sharing a name and distinguished by
// label values — e.g. per-model prediction counts or per-route response
// totals. Children are created on first use and cached; With on a hot
// path is one mutex-guarded map lookup, and the returned *Counter can be
// retained to skip even that.
type CounterVec struct {
	name string
	keys []string

	mu       sync.Mutex
	children map[string]*Counter
	order    []*Counter
}

// NewCounterVec registers a labeled counter family with the given label
// keys. Duplicate names return the existing family.
func NewCounterVec(name string, keys ...string) *CounterVec {
	v := lookup(name, func() *CounterVec {
		return &CounterVec{name: name, keys: keys, children: map[string]*Counter{}}
	})
	if len(v.keys) != len(keys) {
		panic(fmt.Sprintf("obs: counter family %q re-registered with %d label keys, want %d", name, len(keys), len(v.keys)))
	}
	return v
}

// Name returns the family's registered name.
func (v *CounterVec) Name() string { return v.name }

// With returns the child counter for the given label values (one per
// registered key, in key order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: counter family %q given %d label values, want %d", v.name, len(values), len(v.keys)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		labels := make([]Label, len(values))
		for i := range values {
			labels[i] = Label{Key: v.keys[i], Value: values[i]}
		}
		c = &Counter{name: v.name, labels: labels}
		v.children[key] = c
		v.order = append(v.order, c)
	}
	return c
}

// snapshot returns the family's children in creation order.
func (v *CounterVec) snapshot() []*Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Counter, len(v.order))
	copy(out, v.order)
	return out
}

// reset drops every child (label sets are dynamic; a fresh run starts
// with a fresh family).
func (v *CounterVec) reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.children = map[string]*Counter{}
	v.order = nil
}

// Gauge is a named instantaneous value (e.g. in-flight requests): an
// atomic int64 that can go up and down.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers a named gauge. Duplicate names return the existing
// gauge.
func NewGauge(name string) *Gauge {
	return lookup(name, func() *Gauge { return &Gauge{name: name} })
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative n subtracts).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeFunc is a gauge whose value is read from a callback at snapshot
// time — the natural shape for sizes owned by another subsystem (LRU
// cache entries, model-registry size). The callback must not call back
// into obs registration or snapshot functions.
type GaugeFunc struct {
	name string
	mu   sync.Mutex
	fn   func() float64
}

// NewGaugeFunc registers a callback-backed gauge. Re-registering an
// existing name rebinds the callback (latest wins): the metric registry
// is process-global, so a per-instance source — a newly constructed
// server's cache — takes over its predecessor's series.
func NewGaugeFunc(name string, fn func() float64) *GaugeFunc {
	g := lookup(name, func() *GaugeFunc { return &GaugeFunc{name: name} })
	g.mu.Lock()
	g.fn = fn
	g.mu.Unlock()
	return g
}

// Name returns the gauge's registered name.
func (g *GaugeFunc) Name() string { return g.name }

// Value invokes the callback.
func (g *GaugeFunc) Value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// spanStats accumulates the timings of every invocation of one named
// stage. All fields are atomics so concurrent spans (e.g. per-benchmark
// model builds fanned across workers) need no lock.
type spanStats struct {
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

func (s *spanStats) record(d time.Duration) {
	s.count.Add(1)
	s.totalNs.Add(int64(d))
	for {
		cur := s.maxNs.Load()
		if int64(d) <= cur || s.maxNs.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// span looks up (or creates) the stats slot for a name.
func span(name string) *spanStats {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	s, ok := registry.spans[name]
	if !ok {
		s = &spanStats{}
		registry.spans[name] = s
	}
	return s
}

var noop = func() {}

// Reset zeroes every counter, gauge and histogram, drops the children of
// every labeled family, discards all span records, and restarts the run
// clock. Callback gauges keep their bindings. The CLIs call it before a
// run so the report covers exactly that run; tests use it for isolation.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, m := range registry.order {
		switch m := m.(type) {
		case *Counter:
			m.v.Store(0)
		case *CounterVec:
			m.reset()
		case *Gauge:
			m.v.Store(0)
		case *Histogram:
			m.reset()
		case *HistogramVec:
			m.reset()
		}
	}
	registry.spans = map[string]*spanStats{}
	registry.start = time.Now()
	resetWindows()
}

// Counters returns a snapshot of every registered counter, including
// zero-valued ones and the children of labeled families (keyed
// `name{k="v"}`), keyed by display name.
func Counters() map[string]int64 {
	out := map[string]int64{}
	for _, c := range counterSnapshot() {
		out[c.displayName()] = c.v.Load()
	}
	return out
}

// counterSnapshot flattens plain counters and family children, in
// registration order (children in creation order within their family).
func counterSnapshot() []*Counter {
	registry.mu.Lock()
	order := make([]any, len(registry.order))
	copy(order, registry.order)
	registry.mu.Unlock()
	var out []*Counter
	for _, m := range order {
		switch m := m.(type) {
		case *Counter:
			out = append(out, m)
		case *CounterVec:
			out = append(out, m.snapshot()...)
		}
	}
	return out
}

// StartProgress emits a one-line summary of all non-zero counters to w
// every interval until the returned stop function is called. Lines are
// prefixed "obs:" and sorted by counter name, so the output is stable
// enough to eyeball or grep during a long experiment run.
func StartProgress(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fmt.Fprintln(w, progressLine())
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// progressLine renders the current counter state as one stderr line.
func progressLine() string {
	registry.mu.Lock()
	elapsed := time.Since(registry.start)
	registry.mu.Unlock()
	type kv struct {
		k string
		v int64
	}
	var vals []kv
	for _, c := range counterSnapshot() {
		if v := c.v.Load(); v != 0 {
			vals = append(vals, kv{c.displayName(), v})
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].k < vals[j].k })
	line := fmt.Sprintf("obs: %6.1fs", elapsed.Seconds())
	for _, e := range vals {
		line += fmt.Sprintf(" %s=%d", e.k, e.v)
	}
	return line
}
