package cluster

// fleet.go is the router-side fleet observability plane: a background
// scraper pulls every shard's and worker's /metricz?format=json report,
// merges them (plus the router's own registry) into one fleet-wide
// aggregate with obs.MergeReports — exact bucket-wise histogram sums,
// not quantile averaging — feeds the merged cumulative values into an
// obs.FleetWindows for sliding-window views, and evaluates fleet-level
// SLO burn over those windows. /fleetz serves the result as HTML and
// JSON. Cycles are serialized, so an older cycle can never overwrite a
// newer one's merge or feed an older snapshot into the windows.
//
// Scrape-failure policy mirrors the worker Pool's health marks: a
// target is marked unhealthy after fleetFailAfter consecutive failures
// (each attempt bounded by its own deadline), but its last-known-good
// report keeps riding in the merge — dropping it would shrink the
// merged cumulative counters and the window layer would clamp the
// apparent fleet traffic to zero. A genuine role restart shrinks that
// role's own cumulative values instead, which the window clamp absorbs.

import (
	"context"
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"sync"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

var (
	cFleetScrapes    = obs.NewCounter("cluster.fleet_scrapes")
	cFleetScrapeErrs = obs.NewCounter("cluster.fleet_scrape_errors")
	hFleetScrape     = obs.NewHistogram("cluster.fleet_scrape_seconds", obs.DefLatencyBuckets)
)

// fleetFailAfter is how many consecutive scrape failures mark a target
// unhealthy in the /fleetz readiness rollup.
const fleetFailAfter = 3

// fleetTarget is one scraped role. Mutable fields are guarded by
// fleetPlane.mu.
type fleetTarget struct {
	URL  string
	Role string // "shard" or "worker"

	healthy    bool
	fails      int
	lastErr    string
	lastScrape time.Time
	scrapeDur  time.Duration
	report     *obs.Report
}

// fleetPlane owns the scrape targets, the merged aggregate, and the
// fleet windows/SLOs.
type fleetPlane struct {
	client  *http.Client
	timeout time.Duration
	windows *obs.FleetWindows
	slos    []*obs.SLO

	// cycle serializes scrapeOnce: the background loop, /fleetz?refresh=1
	// and a /fleetz hit before the first cycle may all run one.
	cycle sync.Mutex

	mu         sync.Mutex
	targets    []*fleetTarget
	merged     *obs.Report
	states     []obs.SLOState
	lastScrape time.Time
	scrapes    int64
}

// newFleetPlane builds the plane over normalized shard and worker base
// URLs. A nil clock means time.Now (tests inject a fake clock to step
// the burn windows).
func newFleetPlane(shards, workers []string, client *http.Client, timeout time.Duration, clock obs.Clock) *fleetPlane {
	p := &fleetPlane{
		client:  client,
		timeout: timeout,
		windows: obs.NewFleetWindows(clock),
	}
	for _, u := range shards {
		p.targets = append(p.targets, &fleetTarget{URL: u, Role: "shard"})
	}
	for _, u := range workers {
		p.targets = append(p.targets, &fleetTarget{URL: u, Role: "worker"})
	}
	// The request SLOs predserve declares, here over the merged fleet
	// windows ("fleet-latency", "fleet-availability"). These are re-derived
	// from the merged cumulative counters/buckets on every scrape — a
	// p50 of per-role p50s is not a p50, so per-role window summaries
	// are never averaged.
	p.slos = obs.RequestSLOs("fleet", p.windows.Histogram("serve.request_seconds"),
		p.windows.Counter("serve.responses_5xx"), p.windows.Counter("serve.requests_total"))
	return p
}

// roleURLs returns the targets' base URLs, optionally filtered by role
// ("" means all), for trace-search fan-out.
func (p *fleetPlane) roleURLs(role string) []string {
	var out []string
	for _, t := range p.targets {
		if role == "" || t.Role == role {
			out = append(out, t.URL)
		}
	}
	return out
}

// fleetRole is one (url, role) fan-out target.
type fleetRole struct {
	URL  string
	Role string
}

// roles lists the fan-out targets, shards before workers — the order
// federated trace assembly relies on, since a shard's forest may
// already carry its workers' spans.
func (p *fleetPlane) roles() []fleetRole {
	out := make([]fleetRole, len(p.targets))
	for i, t := range p.targets {
		out[i] = fleetRole{URL: t.URL, Role: t.Role}
	}
	return out
}

// scrapeTarget pulls one role's metrics report, bounded by the plane's
// per-target timeout.
func (p *fleetPlane) scrapeTarget(ctx context.Context, url string) (*obs.Report, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metricz?format=json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metricz answered %d", url, resp.StatusCode)
	}
	rep, err := obs.ReadReport(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s/metricz: %w", url, err)
	}
	return rep, nil
}

// scrapeOnce runs one federation cycle: scrape every target in
// parallel, merge with the router's own registry snapshot, ingest into
// the fleet windows, and evaluate the fleet SLOs. Returns the merged
// report. A cycle waits for the one in progress to finish first.
func (p *fleetPlane) scrapeOnce(ctx context.Context) *obs.Report {
	p.cycle.Lock()
	defer p.cycle.Unlock()
	t0 := time.Now()
	type result struct {
		rep *obs.Report
		dur time.Duration
		err error
	}
	results := make([]result, len(p.targets))
	var wg sync.WaitGroup
	for i, t := range p.targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			s0 := time.Now()
			rep, err := p.scrapeTarget(ctx, url)
			results[i] = result{rep: rep, dur: time.Since(s0), err: err}
		}(i, t.URL)
	}
	wg.Wait()

	reps := []*obs.Report{obs.Snapshot()} // the router itself is part of the fleet
	now := time.Now()
	p.mu.Lock()
	for i, t := range p.targets {
		r := results[i]
		t.lastScrape, t.scrapeDur = now, r.dur
		if r.err != nil {
			cFleetScrapeErrs.Inc()
			t.fails++
			t.lastErr = r.err.Error()
			if t.fails >= fleetFailAfter {
				t.healthy = false
			}
		} else {
			t.fails, t.healthy, t.lastErr = 0, true, ""
			t.report = r.rep
		}
		// Last-known-good carryover (see the package comment): a missed
		// scrape must not make the merged cumulative values shrink.
		if t.report != nil {
			reps = append(reps, t.report)
		}
	}
	p.mu.Unlock()

	merged := obs.MergeReports(reps...)
	p.windows.Ingest(merged)
	states := make([]obs.SLOState, len(p.slos))
	for i, slo := range p.slos {
		states[i] = slo.State()
	}

	p.mu.Lock()
	p.merged = merged
	p.states = states
	p.lastScrape = now
	p.scrapes++
	p.mu.Unlock()
	cFleetScrapes.Inc()
	hFleetScrape.Observe(time.Since(t0).Seconds())
	return merged
}

// fleetTargetView is one target's JSON-ready scrape state.
type fleetTargetView struct {
	URL        string  `json:"url"`
	Role       string  `json:"role"`
	Healthy    bool    `json:"healthy"`
	Fails      int     `json:"consecutive_fails,omitempty"`
	LastErr    string  `json:"last_error,omitempty"`
	LastScrape string  `json:"last_scrape,omitempty"`
	ScrapeMS   float64 `json:"scrape_ms"`

	// Drill-down picked off the role's own report.
	UptimeSec  float64 `json:"uptime_sec"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	SampleRate float64 `json:"trace_sample_rate"`
}

// firstCounter returns the first named counter present in the report.
func firstCounter(rep *obs.Report, names ...string) int64 {
	if rep == nil {
		return 0
	}
	for _, n := range names {
		if v, ok := rep.Counters[n]; ok {
			return v
		}
	}
	return 0
}

// targetViews snapshots every target with per-role drill-down fields.
func (p *fleetPlane) targetViews() []fleetTargetView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]fleetTargetView, 0, len(p.targets))
	for _, t := range p.targets {
		v := fleetTargetView{
			URL: t.URL, Role: t.Role, Healthy: t.healthy,
			Fails: t.fails, LastErr: t.lastErr,
			ScrapeMS: float64(t.scrapeDur.Nanoseconds()) / 1e6,
		}
		if !t.lastScrape.IsZero() {
			v.LastScrape = t.lastScrape.UTC().Format(time.RFC3339)
		}
		if rep := t.report; rep != nil {
			v.UptimeSec = rep.WallSec
			v.Requests = firstCounter(rep, "serve.requests_total", "cluster.worker_eval_requests")
			v.Errors = firstCounter(rep, "serve.responses_5xx", "cluster.worker_errors")
			v.SampleRate = rep.Gauges["obs.trace_sample_rate"]
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return out[i].URL < out[j].URL
	})
	return out
}

// snapshot returns the latest merged report, SLO states, and scrape
// bookkeeping.
func (p *fleetPlane) snapshot() (*obs.Report, []obs.SLOState, time.Time, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.merged, p.states, p.lastScrape, p.scrapes
}

// ---- /fleetz ----

// fleetzView is the JSON shape of /fleetz?format=json.
type fleetzView struct {
	Generated  string                     `json:"generated"`
	Scrapes    int64                      `json:"scrapes"`
	SampleRate float64                    `json:"trace_sample_rate"`
	SLOs       []obs.SLOState             `json:"slos"`
	Roles      []fleetTargetView          `json:"roles"`
	Windows    map[string]obs.WindowStats `json:"windows,omitempty"`
	Merged     *obs.Report                `json:"merged,omitempty"`
}

func (rt *Router) fleetzView() fleetzView {
	merged, states, last, scrapes := rt.fleet.snapshot()
	v := fleetzView{
		Scrapes:    scrapes,
		SampleRate: rt.sampler.Rate(),
		SLOs:       states,
		Roles:      rt.fleet.targetViews(),
		Merged:     merged,
	}
	if !last.IsZero() {
		v.Generated = last.UTC().Format(time.RFC3339)
	}
	// Fleet-wide 5m request view re-derived from the merged rings.
	st := rt.fleet.windows.Histogram("serve.request_seconds").StatsOver(5 * time.Minute)
	if st.Count > 0 {
		v.Windows = map[string]obs.WindowStats{"serve.request_seconds/5m": st}
	}
	return v
}

// handleFleetz serves the fleet observability plane: merged metrics,
// fleet SLO burn, readiness rollup, and per-role drill-down.
func (rt *Router) handleFleetz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	_, _, _, scrapes := rt.fleet.snapshot()
	if scrapes == 0 || r.URL.Query().Get("refresh") != "" {
		// Serve fresh numbers on demand (and on the very first hit when
		// the background loop has not completed a cycle yet).
		rt.fleet.scrapeOnce(r.Context())
	}
	switch format := r.URL.Query().Get("format"); format {
	case "json":
		role.WriteJSON(w, http.StatusOK, rt.fleetzView())
	case "", "html":
		rt.renderFleetz(w)
	default:
		role.WriteErr(w, http.StatusBadRequest, "bad_request",
			`unknown format %q (want "html" or "json")`, format)
	}
}

// fleetzRow is one pre-rendered table row for the HTML view.
type fleetzRow struct {
	Cols []string
	Bad  bool
}

// fleetzHTML is the HTML template's root.
type fleetzHTML struct {
	Now        string
	Up         string
	SampleRate string
	Scrapes    int64
	AllHealthy bool
	SLOs       []fleetzRow
	Roles      []fleetzRow
	Drill      []fleetzRow
	Totals     []fleetzRow
	ReqSpark   template.HTML
	ErrSpark   template.HTML
}

var fleetzTmpl = template.Must(template.New("fleetz").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>predrouter /fleetz</title>
<style>
body { font: 13px/1.5 system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 3px 9px; text-align: left; }
th { background: #f2f2f2; font-weight: 600; }
.ok { color: #1a7f37; font-weight: 600; } .bad { color: #b42318; font-weight: 600; }
.muted { color: #777; }
svg.spark { vertical-align: middle; }
</style>
</head>
<body>
<h1>fleet status</h1>
<p>
{{if .AllHealthy}}<span class="ok">ALL ROLES HEALTHY</span>{{else}}<span class="bad">DEGRADED</span>{{end}}
&middot; generated {{.Now}} &middot; router up {{.Up}}
&middot; trace sample rate {{.SampleRate}} &middot; {{.Scrapes}} scrapes
</p>

<h2>Fleet SLOs (burn over merged windows)</h2>
<table>
<tr><th>SLO</th><th>objective</th><th>burn 5m</th><th>burn 1h</th><th>state</th></tr>
{{range .SLOs}}<tr>{{range .Cols}}<td>{{.}}</td>{{end}}<td>{{if .Bad}}<span class="bad">burning</span>{{else}}<span class="ok">ok</span>{{end}}</td></tr>
{{end}}</table>

<h2>Traffic (fleet-wide, per 10s over 1h)</h2>
<p>requests {{.ReqSpark}} &nbsp; 5xx {{.ErrSpark}}</p>

<h2>Roles</h2>
<table>
<tr><th>role</th><th>url</th><th>health</th><th>last scrape</th><th>scrape ms</th><th>error</th></tr>
{{range .Roles}}<tr{{if .Bad}} class="bad"{{end}}>{{range .Cols}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>

<h2>Per-role drill-down (cumulative, from each role's own report)</h2>
<table>
<tr><th>role</th><th>url</th><th>uptime s</th><th>requests</th><th>errors</th><th>sample rate</th></tr>
{{range .Drill}}<tr>{{range .Cols}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>

<h2>Merged totals (exact bucket-wise sums)</h2>
<table>
<tr><th>series</th><th>value</th></tr>
{{range .Totals}}<tr>{{range .Cols}}<td>{{.}}</td>{{end}}</tr>
{{end}}</table>

<p class="muted">JSON: <a href="/fleetz?format=json">/fleetz?format=json</a> &middot; <a href="/fleetz?refresh=1">refresh now</a> &middot; trace search: <a href="/tracez">/tracez</a> &middot; router <a href="/statusz">/statusz</a></p>
</body>
</html>
`))

func (rt *Router) renderFleetz(w http.ResponseWriter) {
	v := rt.fleetzView()
	d := fleetzHTML{
		Now:        v.Generated,
		Up:         time.Since(rt.start).Round(time.Second).String(),
		SampleRate: fmt.Sprintf("%.4g", v.SampleRate),
		Scrapes:    v.Scrapes,
		AllHealthy: true,
		ReqSpark:   role.Sparkline(rt.fleet.windows.CounterSeries("serve.requests_total", time.Hour)),
		ErrSpark:   role.Sparkline(rt.fleet.windows.CounterSeries("serve.responses_5xx", time.Hour)),
	}
	for _, st := range v.SLOs {
		d.SLOs = append(d.SLOs, fleetzRow{
			Cols: []string{
				st.Name,
				fmt.Sprintf("%.4g%%", st.Objective*100),
				fmt.Sprintf("%.2f", st.Fast.BurnRate),
				fmt.Sprintf("%.2f", st.Slow.BurnRate),
			},
			Bad: st.Firing,
		})
	}
	for _, t := range v.Roles {
		health := "healthy"
		if !t.Healthy {
			health = "unhealthy"
			d.AllHealthy = false
		}
		d.Roles = append(d.Roles, fleetzRow{
			Cols: []string{t.Role, t.URL, health, t.LastScrape,
				fmt.Sprintf("%.2f", t.ScrapeMS), t.LastErr},
			Bad: !t.Healthy,
		})
		d.Drill = append(d.Drill, fleetzRow{
			Cols: []string{t.Role, t.URL,
				fmt.Sprintf("%.0f", t.UptimeSec),
				fmt.Sprintf("%d", t.Requests),
				fmt.Sprintf("%d", t.Errors),
				fmt.Sprintf("%.4g", t.SampleRate)},
		})
	}
	if v.Merged != nil {
		for _, name := range []string{
			"serve.requests_total", "serve.responses_5xx", "serve.predicts",
			"cluster.worker_eval_requests", "cluster.router_requests{route=\"predict\"}",
		} {
			if val, ok := v.Merged.Counters[name]; ok {
				d.Totals = append(d.Totals, fleetzRow{Cols: []string{name, fmt.Sprintf("%d", val)}})
			}
		}
		if hs, ok := v.Merged.Histograms["serve.request_seconds"]; ok && hs.Count > 0 {
			d.Totals = append(d.Totals, fleetzRow{Cols: []string{
				"serve.request_seconds p50/p90/p99 ms",
				fmt.Sprintf("%.2f / %.2f / %.2f", hs.P50*1e3, hs.P90*1e3, hs.P99*1e3),
			}})
		}
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = fleetzTmpl.Execute(w, d)
}
