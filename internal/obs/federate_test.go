package obs

import (
	"reflect"
	"testing"
	"time"
)

// fedReport wraps one histogram (and a matching request counter) as the
// per-role report a federating scraper would receive.
func fedReport(t *testing.T, h *Histogram, extraCounters map[string]int64) *Report {
	t.Helper()
	rep := &Report{
		Format:     reportFormat,
		Host:       Host{CPUs: 1, GOMAXPROCS: 1, GoVersion: "go-test", OS: "linux", Arch: "amd64"},
		Counters:   map[string]int64{"fed.requests_total": h.Count()},
		Histograms: map[string]HistStats{"fed.request_seconds": histStats(h)},
	}
	for k, v := range extraCounters {
		rep.Counters[k] = v
	}
	return rep
}

// TestMergeExactVsUnion is the exactness contract: a fleet of roles
// observing disjoint event sets merges to byte-identical counter
// totals and quantiles as one process observing the union. The
// observed values are dyadic (exactly representable) so even the float
// sums compare with ==.
func TestMergeExactVsUnion(t *testing.T) {
	roles := []*Histogram{
		NewHistogram("fedtest.role0", DefLatencyBuckets),
		NewHistogram("fedtest.role1", DefLatencyBuckets),
		NewHistogram("fedtest.role2", DefLatencyBuckets),
	}
	union := NewHistogram("fedtest.union", DefLatencyBuckets)
	// Disjoint per-role observation sets spanning several buckets,
	// including the overflow bucket. Every value is a power of two so
	// the float sums are exact in any addition order.
	p2 := func(k int) float64 {
		if k >= 0 {
			return float64(int64(1) << uint(k))
		}
		return 1 / float64(int64(1)<<uint(-k))
	}
	vals := [][]float64{
		{p2(-13), p2(-12), p2(-11), p2(-11), p2(-8)},
		{p2(-10), p2(-9), p2(-9), p2(-7), p2(-2)},
		{p2(-13), p2(-6), p2(-4), p2(-1), p2(10)},
	}
	for i, h := range roles {
		for _, v := range vals[i] {
			h.Observe(v)
			union.Observe(v)
		}
	}
	reps := make([]*Report, len(roles))
	for i, h := range roles {
		reps[i] = fedReport(t, h, nil)
	}
	merged := MergeReports(reps...)

	want := histStats(union)
	got, ok := merged.Histograms["fed.request_seconds"]
	if !ok {
		t.Fatal("merged report lost the histogram")
	}
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("count/sum: got %d/%v want %d/%v", got.Count, got.Sum, want.Count, want.Sum)
	}
	if got.P50 != want.P50 || got.P90 != want.P90 || got.P99 != want.P99 || got.Max != want.Max {
		t.Fatalf("quantiles not bit-identical to union: got %+v want %+v", got, want)
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) || !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Fatal("merged bucket layout differs from union")
	}
	if merged.Counters["fed.requests_total"] != union.Count() {
		t.Fatalf("counter total: got %d want %d", merged.Counters["fed.requests_total"], union.Count())
	}
}

// TestMergeAssociativeOrderIndependent: bucket-wise merge gives the
// same aggregate regardless of grouping or role order.
func TestMergeAssociativeOrderIndependent(t *testing.T) {
	hs := []*Histogram{
		NewHistogram("fedtest.assoc0", DefLatencyBuckets),
		NewHistogram("fedtest.assoc1", DefLatencyBuckets),
		NewHistogram("fedtest.assoc2", DefLatencyBuckets),
	}
	for i, h := range hs {
		for j := 0; j <= i*3; j++ {
			h.Observe(0.00025 * float64(int64(1)<<uint(j%8)))
		}
	}
	started := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)
	reps := make([]*Report, len(hs))
	for i, h := range hs {
		reps[i] = fedReport(t, h, map[string]int64{"fed.errors_total": int64(i)})
		reps[i].Started = started.Add(time.Duration(i) * time.Minute)
		reps[i].WallSec = float64(10 * (i + 1))
		reps[i].Stages = map[string]StageStats{
			"stage.x": {Count: int64(i + 1), TotalSec: float64(i) * 0.5, MaxSec: float64(i)},
		}
		reps[i].Gauges = map[string]float64{"fed.inflight": float64(i * 2)}
	}
	flat := MergeReports(reps[0], reps[1], reps[2])
	nestedLeft := MergeReports(MergeReports(reps[0], reps[1]), reps[2])
	nestedRight := MergeReports(reps[0], MergeReports(reps[1], reps[2]))
	reversed := MergeReports(reps[2], reps[1], reps[0])
	for name, m := range map[string]*Report{
		"nested-left": nestedLeft, "nested-right": nestedRight, "reversed": reversed,
	} {
		if !reflect.DeepEqual(flat, m) {
			t.Errorf("%s merge differs from flat merge:\nflat:  %+v\nother: %+v", name, flat, m)
		}
	}
	if flat.Counters["fed.errors_total"] != 3 {
		t.Fatalf("summed counter: got %d want 3", flat.Counters["fed.errors_total"])
	}
	if flat.Host.CPUs != 3 {
		t.Fatalf("fleet CPUs: got %d want 3", flat.Host.CPUs)
	}
	if st := flat.Stages["stage.x"]; st.Count != 6 || st.MaxSec != 2 {
		t.Fatalf("merged stage: %+v", st)
	}
}

// TestMergeMixedFormatDegrades: a pre-format-3 report (no raw buckets)
// still sums counts exactly but the merged quantiles degrade to upper
// estimates and the result carries no layout.
func TestMergeMixedFormatDegrades(t *testing.T) {
	a := HistStats{Count: 10, Sum: 1, P50: 0.001, P99: 0.01, Max: 0.01}
	h := NewHistogram("fedtest.mixed", DefLatencyBuckets)
	h.Observe(0.1)
	b := histStats(h)
	m := mergeHistStats(a, b)
	if m.Count != 11 || m.Bounds != nil || m.Buckets != nil {
		t.Fatalf("mixed merge: %+v", m)
	}
	if m.P99 < b.P99 || m.P50 < a.P50 {
		t.Fatalf("mixed merge quantiles below inputs: %+v", m)
	}
}

// TestFleetWindowsSLOBurn drives a fake clock through scrape ticks and
// checks the fleet burn rate against hand-computed bad fractions.
func TestFleetWindowsSLOBurn(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	fw := NewFleetWindows(clock)

	// Baseline scrapes, one per minute: 1000 requests seen so far, none
	// bad. Regular ticks keep the ring's boundary stamps fresh, the way
	// a live scrape loop does.
	for i := 0; i < 5; i++ {
		fw.Ingest(&Report{Counters: map[string]int64{"fleet.total": 1000, "fleet.errors": 0}})
		now = now.Add(time.Minute)
	}
	// Five minutes after the last quiet scrape: 200 new requests, 40 of
	// them errors.
	fw.Ingest(&Report{Counters: map[string]int64{"fleet.total": 1200, "fleet.errors": 40}})

	slo := &SLO{
		Name:      "fleet-availability",
		Objective: 0.9, // error budget 0.1
		SLI:       AvailabilitySLI(fw.Counter("fleet.errors"), fw.Counter("fleet.total")),
	}
	st := slo.State()
	// Over both windows the deltas visible to the ring are the same 200
	// requests / 40 errors: bad fraction 0.2, burn 0.2/0.1 = 2.
	if st.Slow.Total != 200 || st.Slow.Good != 160 {
		t.Fatalf("slow window: %+v", st.Slow)
	}
	wantBurn := 0.2 / (1 - slo.Objective) // ≈ 2, hand-computed the same way
	if st.Slow.BadFraction != 0.2 || st.Slow.BurnRate != wantBurn {
		t.Fatalf("hand-computed burn mismatch: %+v (want burn %v)", st.Slow, wantBurn)
	}
	// The 5m fast window starts after the last full bucket the baseline
	// stamped, so it sees the same delta.
	if st.Fast.BurnRate != wantBurn {
		t.Fatalf("fast burn: %+v", st.Fast)
	}
	if st.Firing {
		t.Fatal("burn 2.0 must not page at the default 14.4 threshold")
	}

	// Push the burn over the paging threshold: 100 more requests, all bad.
	now = now.Add(time.Minute)
	fw.Ingest(&Report{Counters: map[string]int64{"fleet.total": 1300, "fleet.errors": 140}})
	st = slo.State()
	// 300 new / 140 bad since baseline: bad fraction 140/300, burn ≈ 4.67
	// over 1h; over 5m only the latest delta is visible.
	if got := st.Slow.BadFraction; got != float64(140)/300 {
		t.Fatalf("slow bad fraction: got %v", got)
	}

	// Latency SLI over a merged histogram: 3 of 4 observations under
	// the 1ms bound.
	bounds := []float64{0.001, 0.01}
	now = now.Add(time.Minute)
	fw.Ingest(&Report{Histograms: map[string]HistStats{
		"fleet.lat": {Count: 0, Sum: 0, Bounds: bounds, Buckets: []int64{0, 0, 0}},
	}})
	now = now.Add(time.Minute)
	fw.Ingest(&Report{Histograms: map[string]HistStats{
		"fleet.lat": {Count: 4, Sum: 0.5, Bounds: bounds, Buckets: []int64{3, 0, 1}},
	}})
	good, total := fw.Histogram("fleet.lat").GoodOver(5*time.Minute, 0.001)
	if good != 3 || total != 4 {
		t.Fatalf("latency SLI: good %d total %d", good, total)
	}
}

// TestFleetWindowsRestartClamp: a role restart shrinks the merged
// cumulative value; windowed reads clamp at zero instead of reporting
// negative traffic.
func TestFleetWindowsRestartClamp(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	fw := NewFleetWindows(func() time.Time { return now })
	fw.Ingest(&Report{Counters: map[string]int64{"c": 500}})
	now = now.Add(time.Minute)
	fw.Ingest(&Report{Counters: map[string]int64{"c": 100}}) // role restarted
	if n := fw.Counter("c").CountOver(time.Minute); n != 0 {
		t.Fatalf("negative window delta leaked: %d", n)
	}
}

// TestFleetWindowsSeriesBeforeIngest: a counter no report has carried
// yet has no series (the dashboard draws nothing), even once a reader
// has bound to it; the first report starts a flat one.
func TestFleetWindowsSeriesBeforeIngest(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	fw := NewFleetWindows(func() time.Time { return now })
	fw.Counter("c")
	if s := fw.CounterSeries("c", time.Hour); s != nil {
		t.Fatalf("series before the first ingest: %v", s)
	}
	fw.Ingest(&Report{Counters: map[string]int64{"c": 500}})
	s := fw.CounterSeries("c", time.Hour)
	if len(s) == 0 {
		t.Fatal("no series after the first ingest")
	}
	for _, v := range s {
		if v != 0 {
			t.Fatalf("pre-scrape traffic counted: %v", s)
		}
	}
}
