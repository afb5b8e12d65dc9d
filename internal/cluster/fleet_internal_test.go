package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// firing reports whether the named SLO fired on the plane's last cycle.
func firing(p *fleetPlane, name string) bool {
	_, states, _, _ := p.snapshot()
	for _, st := range states {
		if st.Name == name {
			return st.Firing
		}
	}
	return false
}

// TestFleetPlaneBurn drives fleet burn evaluation end-to-end on a fake
// clock: scrape → merge → windowed burn fires on an all-5xx burst, then
// clears once good traffic dilutes it.
func TestFleetPlaneBurn(t *testing.T) {
	var rep atomic.Pointer[obs.Report]
	set := func(total, bad int64) {
		rep.Store(&obs.Report{Format: 3, Counters: map[string]int64{
			"serve.requests_total": total,
			"serve.responses_5xx":  bad,
		}})
	}
	set(1000, 0)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep.Load())
	}))
	defer srv.Close()

	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	p := newFleetPlane([]string{srv.URL}, nil, srv.Client(), time.Second, clock)

	// Quiet baseline, one scrape per minute (the cadence a live loop
	// keeps, which is what keeps the ring's boundary stamps fresh).
	for i := 0; i < 5; i++ {
		p.scrapeOnce(context.Background())
		now = now.Add(time.Minute)
	}
	if firing(p, "fleet-availability") {
		t.Fatal("availability SLO firing on a quiet baseline")
	}

	// Burst: 400 new requests, all 5xx. Bad fraction ≈ 1 over both
	// windows, burn ≈ 1000 against the 0.999 objective — firing.
	set(1400, 400)
	p.scrapeOnce(context.Background())
	if !firing(p, "fleet-availability") {
		t.Fatalf("availability SLO not firing after an all-5xx burst: %+v", p.states)
	}

	// Recovery: a flood of good traffic dilutes the windowed bad
	// fraction far below the paging threshold.
	set(2_000_000, 400)
	now = now.Add(time.Minute)
	p.scrapeOnce(context.Background())
	if firing(p, "fleet-availability") {
		t.Fatalf("availability SLO still firing after dilution: %+v", p.states)
	}
}

// TestFleetCyclesDoNotOverlap: a cycle that starts while another is in
// flight waits for it, so the older cycle can never finish last and
// overwrite the newer merge with its older snapshot.
func TestFleetCyclesDoNotOverlap(t *testing.T) {
	var n atomic.Int64
	firstArrived, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count := int64(200)
		if n.Add(1) == 1 {
			close(firstArrived)
			<-release
			count = 100
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&obs.Report{Format: 3,
			Counters: map[string]int64{"fleettest.overlap": count}})
	}))
	defer srv.Close()

	p := newFleetPlane([]string{srv.URL}, nil, srv.Client(), 5*time.Second, nil)
	done1, done2 := make(chan struct{}), make(chan struct{})
	go func() {
		p.scrapeOnce(context.Background())
		close(done1)
	}()
	<-firstArrived
	go func() {
		p.scrapeOnce(context.Background())
		close(done2)
	}()
	// Hold the first cycle's scrape until the second cycle has either
	// finished (cycles overlap) or had ample time to do so.
	select {
	case <-done2:
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	<-done1
	<-done2

	merged, _, _, scrapes := p.snapshot()
	if got := merged.Counters["fleettest.overlap"]; got != 200 {
		t.Fatalf("merged counter = %d after both cycles, want the newer 200", got)
	}
	if scrapes != 2 {
		t.Fatalf("scrapes = %d, want 2", scrapes)
	}
}

// TestFleetScrapeCarryoverKeepsMergeMonotone: a target that goes dark
// keeps contributing its last-known report, so the merged cumulative
// counters never shrink (which would zero the windowed views for every
// other role).
func TestFleetScrapeCarryoverKeepsMergeMonotone(t *testing.T) {
	var dark atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dark.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&obs.Report{Format: 3,
			Counters: map[string]int64{"fleettest.mono": 700}})
	}))
	defer srv.Close()

	p := newFleetPlane([]string{srv.URL}, nil, srv.Client(), time.Second, nil)
	p.scrapeOnce(context.Background())
	dark.Store(true)
	var merged *obs.Report
	for i := 0; i < fleetFailAfter; i++ {
		merged = p.scrapeOnce(context.Background())
	}
	if got := merged.Counters["fleettest.mono"]; got != 700 {
		t.Fatalf("dark target's last-known counters dropped from the merge: %d", got)
	}
	views := p.targetViews()
	if len(views) != 1 || views[0].Healthy {
		t.Fatalf("target still healthy after %d consecutive failures: %+v", fleetFailAfter, views)
	}
}

// TestFleetScrapeCapsReportSize: a role whose valid report is larger
// than role.MaxAnswerBytes is a failed scrape, read no further than the
// cap, and the router keeps serving.
func TestFleetScrapeCapsReportSize(t *testing.T) {
	head, tail := `{"format":3,"meta":{"pad":"`, `"}}`
	size := role.MaxAnswerBytes + 1
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(size))
		io.WriteString(w, head)
		chunk := strings.Repeat("x", 64<<10)
		for left := size - len(head) - len(tail); left > 0; left -= len(chunk) {
			if _, err := io.WriteString(w, chunk[:min(left, len(chunk))]); err != nil {
				return // the router hung up, as it should
			}
		}
		io.WriteString(w, tail)
	}))
	defer big.Close()
	rt, err := NewRouter(RouterOptions{Shards: []string{big.URL}, SyncInterval: -1, FleetScrapeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := cFleetScrapeErrs.Value()
	rt.FleetScrapeOnce(context.Background())
	if got := cFleetScrapeErrs.Value() - before; got != 1 {
		t.Fatalf("scrape errors = %d, want 1", got)
	}
	if views := rt.fleet.targetViews(); !strings.Contains(views[0].LastErr, "exceeds") {
		t.Fatalf("last error = %q, want the size cap", views[0].LastErr)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after an oversize scrape = %d", resp.StatusCode)
	}
}
