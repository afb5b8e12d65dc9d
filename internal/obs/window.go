package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Sliding-window views over cumulative metrics. A Windowed* view keeps a
// ring of snapshots of a cumulative source, one per bucket-width
// boundary; the windowed value over the last d is the difference between
// the live cumulative state and the snapshot taken ~d ago. Deriving
// windows from snapshots (instead of intercepting every Add/Observe)
// keeps the hot-path cost of an instrumented metric exactly what it was
// — one atomic add — and lets any existing Counter or Histogram gain
// 1m/5m/1h views after the fact.
//
// Rotation is lazy: every read (and every Tick) advances the ring to the
// current bucket boundary, stamping the live cumulative state into each
// boundary crossed. Values are therefore accurate to one bucket width
// (DefWindowBucket), provided something touches the window at least once
// per bucket — a serving process runs StartWindowRotation; tests drive a
// fake clock and call Tick (or any read) explicitly.

// Clock is an injectable time source. Windowed metrics, SLOs, and alert
// sets take one so tests can drive rotation deterministically; nil means
// time.Now.
type Clock func() time.Time

// DefWindowBucket is the ring's bucket width: windowed values are
// accurate to this granularity.
const DefWindowBucket = 10 * time.Second

// maxWindow is the longest supported window (the ring's span).
const maxWindow = time.Hour

// DefWindows are the standard reporting windows, shortest first.
var DefWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// WindowLabel renders a window duration the way the JSON report and the
// Prometheus "window" label spell it: "1m", "5m", "1h".
func WindowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return fmt.Sprintf("%gs", d.Seconds())
	}
}

// winSnap is one cumulative snapshot: observation count, value sum, and
// (histograms only) per-bucket counts. Snapshots are immutable once
// taken, so ring slots may alias the same bucket slice freely.
type winSnap struct {
	count   int64
	sum     float64
	buckets []int64
}

// ring holds cumulative snapshots at bucket boundaries. slots[head] is
// the snapshot at headTime, the most recent boundary; older boundaries
// sit behind it. All access is guarded by the owning wrapper's mutex.
type ring struct {
	width    time.Duration
	slots    []winSnap
	head     int
	headTime time.Time
}

func newRing(width time.Duration, span time.Duration) *ring {
	n := int(span/width) + 1
	return &ring{width: width, slots: make([]winSnap, n)}
}

// clear forgets all history; the next rotate re-bases every slot at the
// then-current cumulative state.
func (r *ring) clear() {
	r.headTime = time.Time{}
}

// rebase stamps cur into every slot: windowed deltas read zero until new
// events arrive.
func (r *ring) rebase(boundary time.Time, cur winSnap) {
	for i := range r.slots {
		r.slots[i] = cur
	}
	r.head, r.headTime = 0, boundary
}

// rotate advances the ring to now's bucket boundary, stamping cur into
// each boundary crossed. A first access, a clock that moved backwards,
// or a jump past the whole ring re-bases instead.
func (r *ring) rotate(now time.Time, cur winSnap) {
	b := now.Truncate(r.width)
	if r.headTime.IsZero() || b.Before(r.headTime) {
		r.rebase(b, cur)
		return
	}
	steps := int(b.Sub(r.headTime) / r.width)
	if steps >= len(r.slots) {
		r.rebase(b, cur)
		return
	}
	for i := 0; i < steps; i++ {
		r.head = (r.head + 1) % len(r.slots)
		r.slots[r.head] = cur
	}
	r.headTime = b
}

// at returns the snapshot k buckets behind the head (clamped to the
// oldest slot).
func (r *ring) at(k int) winSnap {
	if k >= len(r.slots) {
		k = len(r.slots) - 1
	}
	if k < 0 {
		k = 0
	}
	idx := (r.head - k) % len(r.slots)
	if idx < 0 {
		idx += len(r.slots)
	}
	return r.slots[idx]
}

// bucketsFor converts a window to a bucket count (at least one).
func (r *ring) bucketsFor(d time.Duration) int {
	k := int(d / r.width)
	if k < 1 {
		k = 1
	}
	return k
}

// countOver returns the events between the snapshot d ago and the live
// cumulative count cur. A cumulative value that shrank — a restarted
// source — reads as zero, never as negative traffic.
func (r *ring) countOver(cur int64, d time.Duration) int64 {
	return max(cur-r.at(r.bucketsFor(d)).count, 0)
}

// series returns per-bucket event counts over the last d, oldest first,
// with the live (partial) bucket ending at cur last — the sparkline
// shape. A shrinking bucket reads as zero, as in countOver.
func (r *ring) series(cur int64, d time.Duration) []float64 {
	k := r.bucketsFor(d)
	out := make([]float64, 0, k+1)
	for i := k; i >= 1; i-- {
		out = append(out, float64(max(r.at(i-1).count-r.at(i).count, 0)))
	}
	return append(out, float64(max(cur-r.at(0).count, 0)))
}

// WindowStats is one windowed summary: event count and rate over the
// window, plus (histograms only) the mean and interpolated quantiles of
// the values observed inside it.
type WindowStats struct {
	Count int64   `json:"count"`
	Rate  float64 `json:"rate_per_sec"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// window is what every view shares: identity, the cumulative source it
// reads, its clock, and its ring. All ring access is guarded by mu.
type window struct {
	name   string
	labels []Label
	src    func() winSnap

	mu    sync.Mutex
	clock Clock
	r     *ring
}

// windowView is a registered view: a *WindowedCounter or a
// *WindowedHistogram.
type windowView interface {
	Tick()
	Rebase()
	clearHistory()
}

// sync rotates the ring to the clock's current bucket and returns the
// live cumulative snapshot. A Histogram's bucket counts are read one
// atomic load at a time, so a snapshot taken mid-Observe can be off by
// one event — the same (documented) skew the Prometheus exposition
// has. Callers hold w.mu.
func (w *window) sync() winSnap {
	cur := w.src()
	w.r.rotate(w.clock(), cur)
	return cur
}

// Tick rotates the ring without reading anything out — the hook the
// background rotator (StartWindowRotation) uses to keep bucket
// boundaries stamped while no one is reading.
func (w *window) Tick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sync()
}

// Rebase forgets the window's history and re-bases every ring slot at
// the current cumulative state: every windowed delta reads zero until
// new events arrive. The serving layer calls it when the entity a
// window describes is replaced wholesale (a hot-swapped model), so
// observations of the predecessor stop counting against the successor.
func (w *window) Rebase() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.r.clear()
	w.sync()
}

// rebind moves the view onto a new clock, which may not be continuous
// with the old one, so the history goes too.
func (w *window) rebind(clock Clock) {
	w.mu.Lock()
	w.clock = clock
	w.mu.Unlock()
	w.Rebase()
}

// clearHistory drops the ring's history without reading the source;
// the next access re-bases.
func (w *window) clearHistory() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.r.clear()
}

// CountOver returns how many events landed in the last d (rounded to
// bucket boundaries; d is clamped to the ring's span).
func (w *window) CountOver(d time.Duration) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.r.countOver(w.sync().count, d)
}

// Series returns per-bucket event counts over the last d, oldest first,
// with the live (partial) bucket as the final element — the sparkline
// shape.
func (w *window) Series(d time.Duration) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.r.series(w.sync().count, d)
}

// WindowedCounter is a sliding-window view over a cumulative count: a
// Counter, or any source whose value only grows.
type WindowedCounter struct{ window }

// newWindowedCounter builds an unregistered view over src, baselined at
// once: events between creation and the first read must be inside the
// window, not under it.
func newWindowedCounter(name string, labels []Label, clock Clock, src func() winSnap) *WindowedCounter {
	w := &WindowedCounter{window{name: name, labels: labels, src: src, clock: clock, r: newRing(DefWindowBucket, maxWindow)}}
	w.Tick()
	return w
}

// RateOver returns the event rate per second over the last d.
func (w *WindowedCounter) RateOver(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(w.CountOver(d)) / d.Seconds()
}

// Stats summarizes the window (histogram-only fields stay zero).
func (w *WindowedCounter) Stats(d time.Duration) WindowStats {
	c := w.CountOver(d)
	st := WindowStats{Count: c}
	if d > 0 {
		st.Rate = float64(c) / d.Seconds()
	}
	return st
}

// WindowedHistogram is a sliding-window view over a cumulative histogram
// (a Histogram or one child of a HistogramVec): windowed count, rate, mean, and interpolated quantiles
// computed from per-bucket count deltas.
type WindowedHistogram struct {
	window
	bounds func() []float64 // the source's bucket upper bounds
}

// newWindowedHistogram builds an unregistered view over src, baselined
// at once like newWindowedCounter.
func newWindowedHistogram(name string, labels []Label, clock Clock, bounds func() []float64, src func() winSnap) *WindowedHistogram {
	w := &WindowedHistogram{window{name: name, labels: labels, src: src, clock: clock, r: newRing(DefWindowBucket, maxWindow)}, bounds}
	w.Tick()
	return w
}

// deltas returns the per-bucket event counts inside the last d, along
// with the count and sum deltas. Negative deltas — a torn snapshot
// racing a reset, or a restarted source — clamp to zero. Callers hold
// w.mu.
func (w *WindowedHistogram) deltas(d time.Duration) (bounds []float64, counts []int64, n int64, sum float64) {
	cur := w.sync()
	ref := w.r.at(w.r.bucketsFor(d))
	counts = make([]int64, len(cur.buckets))
	for i, c := range cur.buckets {
		if i < len(ref.buckets) {
			c -= ref.buckets[i]
		}
		counts[i] = max(c, 0)
	}
	return w.bounds(), counts, max(cur.count-ref.count, 0), cur.sum - ref.sum
}

// MeanOver returns the mean observed value over the last d (0 when the
// window is empty).
func (w *WindowedHistogram) MeanOver(d time.Duration) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, _, n, sum := w.deltas(d)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// QuantileOver estimates the q-quantile of the values observed in the
// last d, with the same bucket interpolation Histogram.Quantile uses.
// Returns NaN when the window is empty.
func (w *WindowedHistogram) QuantileOver(d time.Duration, q float64) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	bounds, counts, _, _ := w.deltas(d)
	return quantile(q, bounds, counts)
}

// StatsOver summarizes the last d: count, rate, mean, p50/p90/p99
// (zeroed, not NaN, when the window is empty).
func (w *WindowedHistogram) StatsOver(d time.Duration) WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	bounds, counts, n, sum := w.deltas(d)
	st := WindowStats{Count: n}
	if d > 0 {
		st.Rate = float64(n) / d.Seconds()
	}
	if n <= 0 {
		return st
	}
	st.Mean = sum / float64(n)
	st.P50 = quantile(0.50, bounds, counts)
	st.P90 = quantile(0.90, bounds, counts)
	st.P99 = quantile(0.99, bounds, counts)
	return st
}

// GoodOver counts the observations in the last d that landed in buckets
// whose upper bound is <= threshold, plus the window total — the
// latency-SLI primitive. The threshold is effectively rounded down to a
// bucket bound: observations under the threshold that landed in a bucket
// straddling it count as bad, so align SLO thresholds with bucket bounds
// for exact accounting.
func (w *WindowedHistogram) GoodOver(d time.Duration, threshold float64) (good, total int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	bounds, counts, n, _ := w.deltas(d)
	return goodUnder(bounds, counts, n, threshold), n
}

// goodUnder counts the events in counts that landed in buckets whose
// upper bound is <= threshold — the bucket-quantized core of GoodOver.
func goodUnder(bounds []float64, counts []int64, n int64, threshold float64) (good int64) {
	hi := sort.SearchFloat64s(bounds, threshold)
	if hi < len(bounds) && bounds[hi] == threshold {
		hi++
	}
	for i := 0; i < hi && i < len(counts); i++ {
		good += counts[i]
	}
	if hi > len(bounds) { // threshold above every finite bound: overflow too
		good = n
	}
	return good
}

// windows is the registry of windowed views, keyed by the underlying
// metric's display name. Registration order is kept so the JSON report
// and the Prometheus exposition are stable.
var windows struct {
	mu     sync.Mutex
	byName map[string]windowView
	order  []string
}

func init() {
	windows.byName = map[string]windowView{}
}

// registerWindow installs (or re-binds) a windowed view. Latest-wins
// re-binding mirrors NewGaugeFunc: the registry is process-global, so a
// newly constructed server's clock takes over its predecessor's view.
// Re-registration clears ring history, because the new clock may not be
// continuous with the old one.
func registerWindow[T windowView](name string, clock Clock, mk func(Clock) T, rebind func(T, Clock)) T {
	if clock == nil {
		clock = time.Now
	}
	windows.mu.Lock()
	defer windows.mu.Unlock()
	if m, ok := windows.byName[name]; ok {
		if t, ok := m.(T); ok {
			rebind(t, clock)
			return t
		}
		panic("obs: window " + name + " already registered for a different metric kind")
	}
	t := mk(clock)
	windows.byName[name] = t
	windows.order = append(windows.order, name)
	return t
}

// WindowCounter returns the sliding-window view of c, creating (and
// registering) it on first use. A nil clock means time.Now.
func WindowCounter(c *Counter, clock Clock) *WindowedCounter {
	name := c.displayName()
	return registerWindow(name, clock,
		func(clk Clock) *WindowedCounter {
			return newWindowedCounter(name, c.labels, clk, func() winSnap { return winSnap{count: c.Value()} })
		},
		(*WindowedCounter).rebind)
}

// WindowHistogram returns the sliding-window view of h.
func WindowHistogram(h *Histogram, clock Clock) *WindowedHistogram {
	return windowHistogram(h.displayName(), h.labels, clock, func() *Histogram { return h })
}

// WindowHistogramIn returns the sliding-window view of one child of a
// HistogramVec. The child is re-fetched on every access, so the view
// survives Reset (which discards and recreates family children).
func WindowHistogramIn(v *HistogramVec, clock Clock, values ...string) *WindowedHistogram {
	child := v.With(values...)
	return windowHistogram(child.displayName(), child.labels, clock,
		func() *Histogram { return v.With(values...) })
}

func windowHistogram(name string, labels []Label, clock Clock, fetch func() *Histogram) *WindowedHistogram {
	bounds := func() []float64 { return fetch().bounds }
	src := func() winSnap {
		h := fetch()
		return winSnap{count: h.Count(), sum: h.Sum(), buckets: h.bucketCounts()}
	}
	return registerWindow(name, clock,
		func(clk Clock) *WindowedHistogram { return newWindowedHistogram(name, labels, clk, bounds, src) },
		(*WindowedHistogram).rebind)
}

// windowViews copies the registry's views in registration order.
func windowViews() []windowView {
	windows.mu.Lock()
	defer windows.mu.Unlock()
	out := make([]windowView, 0, len(windows.order))
	for _, name := range windows.order {
		out = append(out, windows.byName[name])
	}
	return out
}

// TickWindows rotates every registered window to the current bucket
// boundary. The background rotator calls it periodically; fake-clock
// tests call it after advancing time.
func TickWindows() {
	for _, v := range windowViews() {
		v.Tick()
	}
}

// StartWindowRotation ticks every registered window each interval
// (default: half the bucket width) until the returned stop function is
// called, guaranteeing bucket boundaries are stamped even when nothing
// reads the windows.
func StartWindowRotation(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = DefWindowBucket / 2
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
				TickWindows()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// WindowSnapshot summarizes every registered window over the standard
// reporting windows: metric display name → window label ("1m", "5m",
// "1h") → stats.
func WindowSnapshot() map[string]map[string]WindowStats {
	views := windowViews()
	if len(views) == 0 {
		return nil
	}
	out := make(map[string]map[string]WindowStats, len(views))
	for _, v := range views {
		switch w := v.(type) {
		case *WindowedCounter:
			m := make(map[string]WindowStats, len(DefWindows))
			for _, d := range DefWindows {
				m[WindowLabel(d)] = w.Stats(d)
			}
			out[w.name] = m
		case *WindowedHistogram:
			m := make(map[string]WindowStats, len(DefWindows))
			for _, d := range DefWindows {
				m[WindowLabel(d)] = w.StatsOver(d)
			}
			out[w.name] = m
		}
	}
	return out
}

// resetWindows clears every ring (Reset re-bases windowed views along
// with the cumulative metrics under them).
func resetWindows() {
	for _, v := range windowViews() {
		v.clearHistory()
	}
}
