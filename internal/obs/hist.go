package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ExponentialBuckets returns n log-spaced upper bounds starting at start
// and growing by factor: start, start·factor, …, start·factor^(n-1).
// These are histogram bucket *boundaries*; a histogram built from them
// has n+1 buckets (the last catches every observation above the final
// bound, the Prometheus "+Inf" bucket).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExponentialBuckets(%g, %g, %d): need start > 0, factor > 1, n >= 1", start, factor, n))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// DefLatencyBuckets is the default latency histogram layout: 20
// log-spaced bounds from 100µs to ~52s (factor 2), wide enough to cover
// a cached prediction and a simulator-verified search in one histogram.
var DefLatencyBuckets = ExponentialBuckets(100e-6, 2, 20)

// Histogram is a fixed-bucket histogram with lock-free atomic bucket
// counts. Observe is a binary search over the (immutable) bounds plus
// three atomic adds, safe for hot paths; every observation lands in
// exactly one bucket, so the sum of bucket counts equals the observation
// count under any concurrency. Histograms created by a HistogramVec
// additionally carry labels.
type Histogram struct {
	name      string
	labels    []Label
	bounds    []float64 // strictly increasing upper bounds; implicit +Inf last
	buckets   []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64 // float64 bits of the running sum, CAS-updated
	exemplars []atomic.Pointer[exemplar]
}

// exemplar is one bucket's most recent traced observation — the
// OpenMetrics "# {trace_id=...}" annotation linking a latency bucket to
// a trace in the /tracez store.
type exemplar struct {
	traceID string
	value   float64
	// unixNano orders a histogram's exemplars for LatestExemplar; two
	// requests often finish within one millisecond.
	unixNano int64
}

// Exemplar is the exported view of a bucket exemplar.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

func newHistogram(name string, bounds []float64, labels []Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds are not sorted", name))
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		name: name, labels: labels, bounds: b,
		buckets:   make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(b)+1),
	}
}

// NewHistogram registers a named histogram with the given upper bounds
// (DefLatencyBuckets when nil). Duplicate names return the existing
// histogram.
func NewHistogram(name string, bounds []float64) *Histogram {
	return lookup(name, func() *Histogram { return newHistogram(name, bounds, nil) })
}

// Name returns the histogram's registered name (without labels).
func (h *Histogram) Name() string { return h.name }

// displayName is the report key: name plus rendered labels.
func (h *Histogram) displayName() string { return h.name + labelString(h.labels) }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v) }

// ObserveWithExemplar records one value and stamps its bucket with the
// trace that produced it, so /metricz exposition can point at a
// concrete trace per latency band. A single atomic pointer swap on top
// of Observe; empty trace IDs record no exemplar.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v, unixNano: time.Now().UnixNano()})
	}
}

// observe adds v and returns the index of the bucket it landed in.
func (h *Histogram) observe(v float64) int {
	// First index whose bound is >= v, i.e. the smallest bucket whose
	// "le" upper bound admits v; values above every bound land in the
	// overflow (+Inf) bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return i
		}
	}
}

// exemplarAt returns bucket i's exemplar, or nil.
func (h *Histogram) exemplarAt(i int) *exemplar { return h.exemplars[i].Load() }

// LatestExemplar returns the most recently recorded exemplar across all
// buckets — the "recent trace" link on a /statusz route row.
func (h *Histogram) LatestExemplar() (Exemplar, bool) {
	var best *exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil && (best == nil || e.unixNano > best.unixNano) {
			best = e
		}
	}
	if best == nil {
		return Exemplar{}, false
	}
	return Exemplar{TraceID: best.traceID, Value: best.value, Time: time.Unix(0, best.unixNano)}, true
}

// ObserveSince records the elapsed seconds since t0 — the latency idiom:
//
//	t0 := time.Now()
//	...
//	h.ObserveSince(t0)
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// bucketCounts snapshots the per-bucket counts (not cumulative).
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	for i := range h.exemplars {
		h.exemplars[i].Store(nil)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket containing the target rank — the same estimate a
// Prometheus histogram_quantile() gives. Observations in the overflow
// bucket are attributed to the highest finite bound. Returns NaN for an
// empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	return quantile(q, h.bounds, h.bucketCounts())
}

func quantile(q float64, bounds []float64, counts []int64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward, so report the highest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// HistogramVec is a family of histograms sharing a name and bucket
// layout, distinguished by label values — e.g. per-route request
// latency. Children are created on first use and cached.
type HistogramVec struct {
	name   string
	keys   []string
	bounds []float64

	mu       sync.Mutex
	children map[string]*Histogram
	order    []*Histogram
}

// NewHistogramVec registers a labeled histogram family with the given
// upper bounds (DefLatencyBuckets when nil) and label keys. Duplicate
// names return the existing family.
func NewHistogramVec(name string, bounds []float64, keys ...string) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	v := lookup(name, func() *HistogramVec {
		return &HistogramVec{name: name, keys: keys, bounds: bounds, children: map[string]*Histogram{}}
	})
	if len(v.keys) != len(keys) {
		panic(fmt.Sprintf("obs: histogram family %q re-registered with %d label keys, want %d", name, len(keys), len(v.keys)))
	}
	return v
}

// Name returns the family's registered name.
func (v *HistogramVec) Name() string { return v.name }

// With returns the child histogram for the given label values (one per
// registered key, in key order), creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.keys) {
		panic(fmt.Sprintf("obs: histogram family %q given %d label values, want %d", v.name, len(values), len(v.keys)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[key]
	if !ok {
		labels := make([]Label, len(values))
		for i := range values {
			labels[i] = Label{Key: v.keys[i], Value: values[i]}
		}
		h = newHistogram(v.name, v.bounds, labels)
		v.children[key] = h
		v.order = append(v.order, h)
	}
	return h
}

// snapshot returns the family's children in creation order.
func (v *HistogramVec) snapshot() []*Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*Histogram, len(v.order))
	copy(out, v.order)
	return out
}

func (v *HistogramVec) reset() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.children = map[string]*Histogram{}
	v.order = nil
}

// histogramSnapshot flattens plain histograms and family children, in
// registration order.
func histogramSnapshot() []*Histogram {
	registry.mu.Lock()
	order := make([]any, len(registry.order))
	copy(order, registry.order)
	registry.mu.Unlock()
	var out []*Histogram
	for _, m := range order {
		switch m := m.(type) {
		case *Histogram:
			out = append(out, m)
		case *HistogramVec:
			out = append(out, m.snapshot()...)
		}
	}
	return out
}

// gaugeValues snapshots every gauge (set-point and callback) keyed by
// name. Callbacks run outside the registry lock so they may consult
// other subsystems' locks freely.
func gaugeValues() map[string]float64 {
	registry.mu.Lock()
	order := make([]any, len(registry.order))
	copy(order, registry.order)
	registry.mu.Unlock()
	out := map[string]float64{}
	for _, m := range order {
		switch m := m.(type) {
		case *Gauge:
			out[m.name] = float64(m.v.Load())
		case *GaugeFunc:
			out[m.name] = m.Value()
		}
	}
	return out
}
