package obs

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet federation: exact merging of per-role run reports into one
// aggregate view, plus sliding windows re-derived from successive
// merged snapshots.
//
// The merge contract is *exactness*, not approximation: counters and
// stage counts are integer sums; histograms carry their raw log-spaced
// bucket layouts (report format >= 3) and merge bucket-wise, with
// quantiles re-derived from the merged counts by the same
// interpolation Histogram.Quantile uses. A fleet of N processes
// observing disjoint event sets therefore reports byte-for-byte the
// same counter totals and quantiles as one process observing the
// union. The merge is associative and order-independent because every
// combining operation (integer add, float add of dyadic-friendly sums,
// max) is.

// MergeReports merges per-role reports into one fleet-wide aggregate.
// Nil inputs are skipped. Counters, stage counts/totals, and gauge
// values sum; stage maxima take the max; histograms merge bucket-wise
// when their layouts agree (always, for same-build roles) and degrade
// to summed counts with upper-estimate quantiles when an old-format
// report lacks raw buckets. Windows and SLOs are intentionally left
// empty: windowed views cannot be merged exactly from pre-derived
// stats (a p50 of p50s is not a p50), so federating readers re-derive
// them from merged cumulative snapshots via FleetWindows.
func MergeReports(reports ...*Report) *Report {
	out := &Report{
		Format:   reportFormat,
		Stages:   map[string]StageStats{},
		Counters: map[string]int64{},
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		if out.Host.GoVersion == "" {
			out.Host.GoVersion = r.Host.GoVersion
			out.Host.OS = r.Host.OS
			out.Host.Arch = r.Host.Arch
		}
		// Fleet capacity, not per-host shape.
		out.Host.CPUs += r.Host.CPUs
		out.Host.GOMAXPROCS += r.Host.GOMAXPROCS
		if out.Started.IsZero() || (!r.Started.IsZero() && r.Started.Before(out.Started)) {
			out.Started = r.Started
		}
		out.WallSec = math.Max(out.WallSec, r.WallSec)
		for name, st := range r.Stages {
			prev := out.Stages[name]
			out.Stages[name] = StageStats{
				Count:    prev.Count + st.Count,
				TotalSec: addFinite(prev.TotalSec, st.TotalSec),
				MaxSec:   math.Max(prev.MaxSec, st.MaxSec),
			}
		}
		for name, v := range r.Counters {
			out.Counters[name] += v
		}
		for name, v := range r.Gauges {
			if out.Gauges == nil {
				out.Gauges = map[string]float64{}
			}
			out.Gauges[name] = addFinite(out.Gauges[name], v)
		}
		for name, st := range r.Histograms {
			if out.Histograms == nil {
				out.Histograms = map[string]HistStats{}
			}
			out.Histograms[name] = mergeHistStats(out.Histograms[name], st)
		}
	}
	return out
}

// mergeHistStats combines two histogram summaries. When both carry raw
// buckets over the same bounds, the merge is exact: bucket-wise sums
// with quantiles re-derived from the merged counts. A side that never
// observed anything and carries no layout is the identity. Mismatched
// layouts (mixed builds or pre-format-3 reports) still sum counts and
// sums exactly but fall back to the max of each pre-computed quantile —
// an upper estimate, flagged by the absence of Bounds in the result.
func mergeHistStats(a, b HistStats) HistStats {
	if a.Count == 0 && len(a.Buckets) == 0 {
		return cloneHistStats(b)
	}
	if b.Count == 0 && len(b.Buckets) == 0 {
		return cloneHistStats(a)
	}
	m := HistStats{Count: a.Count + b.Count, Sum: addFinite(a.Sum, b.Sum)}
	if len(a.Buckets) > 0 && len(a.Buckets) == len(b.Buckets) && slices.Equal(a.Bounds, b.Bounds) {
		m.Bounds = append([]float64(nil), a.Bounds...)
		m.Buckets = make([]int64, len(a.Buckets))
		for i := range m.Buckets {
			m.Buckets[i] = a.Buckets[i] + b.Buckets[i]
		}
		if m.Count > 0 {
			m.P50 = quantile(0.50, m.Bounds, m.Buckets)
			m.P90 = quantile(0.90, m.Bounds, m.Buckets)
			m.P99 = quantile(0.99, m.Bounds, m.Buckets)
			m.Max = quantile(1, m.Bounds, m.Buckets)
		}
		return m
	}
	m.P50 = math.Max(a.P50, b.P50)
	m.P90 = math.Max(a.P90, b.P90)
	m.P99 = math.Max(a.P99, b.P99)
	m.Max = math.Max(a.Max, b.Max)
	return m
}

// addFinite adds two finite values, saturating at ±math.MaxFloat64: a
// merge of reports, however large their values, stays JSON-encodable.
func addFinite(a, b float64) float64 {
	return max(-math.MaxFloat64, min(a+b, math.MaxFloat64))
}

func cloneHistStats(s HistStats) HistStats {
	c := s
	c.Bounds = append([]float64(nil), s.Bounds...)
	c.Buckets = append([]int64(nil), s.Buckets...)
	return c
}

// FleetWindows holds sliding-window views over successive merged
// cumulative snapshots — the federating reader's counterpart of the
// registry's windows. Each merged metric gets an ordinary
// WindowedCounter or WindowedHistogram whose source is the latest merged
// value Ingest stored, so windowed deltas, rates, quantiles, and SLI
// counts over the fleet follow the per-process semantics exactly,
// including the clamp that reads a role restart's shrinking cumulative
// value as zero traffic rather than negative traffic.
type FleetWindows struct {
	mu       sync.Mutex
	clock    Clock
	counters map[string]*fleetSeries
	hists    map[string]*fleetSeries
}

// fleetSeries is one merged metric: the latest cumulative snapshot
// Ingest stored (nil until a report carries the metric) and the view
// that reads it, c for a counter or h for a histogram.
type fleetSeries struct {
	last atomic.Pointer[fleetSnap]
	c    *WindowedCounter
	h    *WindowedHistogram
}

type fleetSnap struct {
	bounds []float64
	snap   winSnap
}

// latest is the view's source: the latest merged snapshot, zero before
// the first.
func (s *fleetSeries) latest() fleetSnap {
	if p := s.last.Load(); p != nil {
		return *p
	}
	return fleetSnap{}
}

// advance stores a newly ingested snapshot and rotates view onto it. The
// first snapshot re-bases the view, so traffic from before the first
// scrape never counts as windowed traffic.
func (s *fleetSeries) advance(next *fleetSnap, view windowView) {
	if s.last.Swap(next) == nil {
		view.Rebase()
	} else {
		view.Tick()
	}
}

// NewFleetWindows builds an empty fleet-window set on the given clock
// (nil: time.Now).
func NewFleetWindows(clock Clock) *FleetWindows {
	if clock == nil {
		clock = time.Now
	}
	return &FleetWindows{
		clock:    clock,
		counters: map[string]*fleetSeries{},
		hists:    map[string]*fleetSeries{},
	}
}

// Counter returns the window over the named merged counter, created on
// first use so an SLI can bind to it before the first scrape.
func (f *FleetWindows) Counter(name string) *WindowedCounter {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counter(name).c
}

// Histogram returns the window over the named merged histogram, created
// on first use.
func (f *FleetWindows) Histogram(name string) *WindowedHistogram {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hist(name).h
}

// CounterSeries returns the named merged counter's per-bucket event
// counts over the last d (WindowedCounter.Series), or nil until a report
// has carried the counter, so a dashboard draws nothing before the first
// scrape.
func (f *FleetWindows) CounterSeries(name string, d time.Duration) []float64 {
	f.mu.Lock()
	s, ok := f.counters[name]
	f.mu.Unlock()
	if !ok || s.last.Load() == nil {
		return nil
	}
	return s.c.Series(d)
}

// counter returns (creating) a counter series. Callers hold f.mu.
func (f *FleetWindows) counter(name string) *fleetSeries {
	s, ok := f.counters[name]
	if !ok {
		s = &fleetSeries{}
		s.c = newWindowedCounter(name, nil, f.clock, func() winSnap { return s.latest().snap })
		f.counters[name] = s
	}
	return s
}

// hist returns (creating) a histogram series. Callers hold f.mu.
func (f *FleetWindows) hist(name string) *fleetSeries {
	s, ok := f.hists[name]
	if !ok {
		s = &fleetSeries{}
		s.h = newWindowedHistogram(name, nil, f.clock,
			func() []float64 { return s.latest().bounds },
			func() winSnap { return s.latest().snap })
		f.hists[name] = s
	}
	return s
}

// Ingest feeds one merged report: every counter, and every histogram
// that carries raw buckets, stores its merged cumulative value and
// moves its window to the current bucket boundary. Metrics absent from
// the report (a role down mid-scrape) simply keep their last value —
// the windowed delta then under-counts for one tick rather than
// inventing negative traffic.
func (f *FleetWindows) Ingest(rep *Report) {
	if rep == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, v := range rep.Counters {
		s := f.counter(name)
		s.advance(&fleetSnap{snap: winSnap{count: v}}, s.c)
	}
	for name, st := range rep.Histograms {
		if len(st.Buckets) == 0 {
			continue // pre-format-3 source: not windowable exactly
		}
		s := f.hist(name)
		if p := s.last.Load(); p != nil && !slices.Equal(p.bounds, st.Bounds) {
			continue // layout changed under us (mixed builds): skip
		}
		s.advance(&fleetSnap{
			bounds: append([]float64(nil), st.Bounds...),
			snap:   winSnap{count: st.Count, sum: st.Sum, buckets: append([]int64(nil), st.Buckets...)},
		}, s.h)
	}
}
