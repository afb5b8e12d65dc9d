package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// Host records how much hardware a run had available, so reports from
// different machines compare like for like.
type Host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// StageStats summarizes every invocation of one named span: how many
// times the stage ran, total wall-clock across invocations, and the
// slowest single invocation.
type StageStats struct {
	Count    int64   `json:"count"`
	TotalSec float64 `json:"total_sec"`
	MaxSec   float64 `json:"max_sec"`
}

// HistStats summarizes one histogram: observation count, value sum, and
// interpolated latency quantiles (NaN-free: zero when empty).
//
// Bounds and Buckets (format >= 3) carry the raw log-spaced bucket
// layout and per-bucket counts (len(Bounds)+1 entries, the last being
// the overflow bucket). They carry the histogram whole, so a reader can
// combine or subtract reports *exactly* — bucket-wise integer sums,
// quantiles re-derived from the counts — instead of approximating from
// pre-computed percentiles.
type HistStats struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	P50     float64   `json:"p50"`
	P90     float64   `json:"p90"`
	P99     float64   `json:"p99"`
	Max     float64   `json:"max"` // highest bucket bound reached (upper estimate)
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Report is the machine-readable run report the CLIs write for
// -report. Stages covers every timed span, Counters every registered
// counter — including the children of labeled families, keyed
// `name{k="v"}` — (zero-valued ones included, so the schema is stable
// across workloads), Gauges every gauge, Histograms every histogram's
// summary, and Meta carries caller-specific run configuration (the
// benchmark, scale, flag values, ...).
type Report struct {
	Format     int                   `json:"format"`
	Host       Host                  `json:"host"`
	Started    time.Time             `json:"started"`
	WallSec    float64               `json:"wall_sec"`
	Stages     map[string]StageStats `json:"stages"`
	Counters   map[string]int64      `json:"counters"`
	Gauges     map[string]float64    `json:"gauges,omitempty"`
	Histograms map[string]HistStats  `json:"histograms,omitempty"`
	// Windows (format >= 2) summarizes every registered sliding-window
	// view: metric display name → window label ("1m", "5m", "1h") →
	// stats.
	Windows map[string]map[string]WindowStats `json:"windows,omitempty"`
	// SLOs (format >= 2) carries the evaluated state of every registered
	// SLO.
	SLOs []SLOState        `json:"slos,omitempty"`
	Meta map[string]string `json:"meta,omitempty"`
}

// reportFormat versions the report schema. Format 2 added Windows and
// SLOs; format 3 added raw histogram bucket layouts (HistStats.Bounds /
// Buckets) so reports are exactly mergeable. Older formats (which
// simply lack those fields) still decode.
const reportFormat = 3

// Snapshot captures the current observability state as a report. The
// caller may fill Meta before writing it out. Callback gauges are
// evaluated outside the registry lock.
func Snapshot() *Report {
	registry.mu.Lock()
	spans := make(map[string]*spanStats, len(registry.spans))
	for name, s := range registry.spans {
		spans[name] = s
	}
	start := registry.start
	registry.mu.Unlock()

	rep := &Report{
		Format: reportFormat,
		Host: Host{
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Started:  start,
		WallSec:  time.Since(start).Seconds(),
		Stages:   make(map[string]StageStats, len(spans)),
		Counters: Counters(),
	}
	for name, s := range spans {
		rep.Stages[name] = StageStats{
			Count:    s.count.Load(),
			TotalSec: time.Duration(s.totalNs.Load()).Seconds(),
			MaxSec:   time.Duration(s.maxNs.Load()).Seconds(),
		}
	}
	if g := gaugeValues(); len(g) > 0 {
		rep.Gauges = g
	}
	for _, h := range histogramSnapshot() {
		if rep.Histograms == nil {
			rep.Histograms = map[string]HistStats{}
		}
		rep.Histograms[h.displayName()] = histStats(h)
	}
	rep.Windows = WindowSnapshot()
	rep.SLOs = SLOStates()
	return rep
}

// histStats summarizes one histogram, mapping the NaN of an empty
// histogram's quantiles to zero so the JSON stays plain numbers. The
// raw bucket layout rides along so the summary stays exactly mergeable.
// Count and the quantiles come from the one read of the buckets, so
// they agree even while other goroutines observe.
func histStats(h *Histogram) HistStats {
	st := HistStats{Sum: h.Sum(), Bounds: h.Bounds(), Buckets: h.bucketCounts()}
	for _, c := range st.Buckets {
		st.Count += c
	}
	if st.Count == 0 {
		return st
	}
	st.P50 = quantile(0.50, st.Bounds, st.Buckets)
	st.P90 = quantile(0.90, st.Bounds, st.Buckets)
	st.P99 = quantile(0.99, st.Bounds, st.Buckets)
	st.Max = quantile(1, st.Bounds, st.Buckets)
	return st
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("obs: writing report: %w", err)
	}
	return nil
}

// ReadReport parses a report written by Write, rejecting unknown
// schema versions and histograms no Histogram could have written (see
// HistStats.check). Every format up to the current one is accepted:
// format 1 predates Windows and SLOs, which simply stay empty.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("obs: reading report: %w", err)
	}
	if rep.Format < 1 || rep.Format > reportFormat {
		return nil, fmt.Errorf("obs: unsupported report format %d (this build reads formats 1 through %d)", rep.Format, reportFormat)
	}
	for name, st := range rep.Histograms {
		if err := st.check(); err != nil {
			return nil, fmt.Errorf("obs: reading report: histogram %q: %w", name, err)
		}
	}
	return &rep, nil
}

// maxHistCount bounds a histogram's count in a report: far more than a
// process observes, and few enough that counts summed across reports
// stay exact as float64.
const maxHistCount = 1 << 53

// check rejects a raw layout no Histogram writes, which a reader of the
// buckets could index past or interpolate to a non-finite quantile. A
// layout has at least one bound, the bounds finite, positive and
// strictly increasing, and one bucket more than bounds; the bucket counts
// are not negative and add up to Count, at most maxHistCount; the sum is
// not negative. A histogram without buckets (format < 3) has no layout.
func (st HistStats) check() error {
	if len(st.Buckets) == 0 {
		return nil
	}
	if len(st.Bounds) == 0 || len(st.Buckets) != len(st.Bounds)+1 {
		return fmt.Errorf("%d buckets for %d bounds", len(st.Buckets), len(st.Bounds))
	}
	prev := 0.0
	for _, b := range st.Bounds {
		if !(b > prev) || math.IsInf(b, 1) {
			return fmt.Errorf("bounds are not finite, positive and strictly increasing")
		}
		prev = b
	}
	var total int64
	for _, c := range st.Buckets {
		if c < 0 || c > maxHistCount-total {
			return fmt.Errorf("bucket counts are negative or add up past %d", int64(maxHistCount))
		}
		total += c
	}
	if total != st.Count || st.Sum < 0 {
		return fmt.Errorf("buckets add up to %d and sum to %g, for a count of %d", total, st.Sum, st.Count)
	}
	return nil
}
