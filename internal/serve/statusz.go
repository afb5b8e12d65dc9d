package serve

import (
	"fmt"
	"html/template"
	"math"
	"net/http"
	"sort"
	"time"

	"predperf/internal/cluster"
	"predperf/internal/obs"
	"predperf/internal/role"
)

// /statusz: a single self-contained HTML page — stdlib html/template,
// inline CSS, inline SVG sparklines, no external assets — answering the
// operational questions in one load: what build is this, what models
// does it serve and do they still track the simulator, what does
// request latency look like right now (not since boot), and how much
// SLO error budget is left.

// statuszData is the template's root.
type statuszData struct {
	Now       string
	UptimeSec string
	Build     BuildInfo
	Ready     bool
	Reasons   []unreadyReason
	SLOs      []sloRow
	Models    []modelRow
	Retrains  []retrainState
	Routes    []routeRow
	Alerts    []obs.Alert
	Windows   string // window labels legend, e.g. "1m / 5m / 1h"
	SimPool   []cluster.WorkerStatus
	TraceRate string // edge head-sampling rate currently in effect
}

type sloRow struct {
	Name        string
	Description string
	Objective   string // "99.9%"
	FastBurn    string
	SlowBurn    string
	BudgetPct   float64 // 0..100, capped, for the budget bar width
	BudgetLabel string
	Firing      bool
}

type modelRow struct {
	Name          string
	Benchmark     string
	SampleSize    int
	Centers       int
	AICc          string
	Predictions   int64
	ShadowSamples int64
	ShadowMeanPct string
	Drifting      bool
}

type routeRow struct {
	Route     string
	Count1m   int64
	Count5m   int64
	Count1h   int64
	Rate1m    string
	P50       string // over 5m, milliseconds
	P90       string
	P99       string
	Sparkline template.HTML
	TraceID   string // most recent latency-histogram exemplar, "" if none
}

var statuszTmpl = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>predserve /statusz</title>
<style>
body { font: 13px/1.5 system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 3px 9px; text-align: left; }
th { background: #f2f2f2; font-weight: 600; }
td.num, th.num { text-align: right; }
.ok { color: #1a7f37; font-weight: 600; } .bad { color: #b42318; font-weight: 600; }
.bar { display: inline-block; width: 160px; height: 11px; background: #e6e6e6; border-radius: 3px; overflow: hidden; vertical-align: middle; }
.bar .fill { display: block; height: 100%; background: #1a7f37; }
.bar .fill.hot { background: #b42318; }
.muted { color: #777; }
svg.spark { vertical-align: middle; }
</style>
</head>
<body>
<h1>predserve status</h1>
<p>
{{if .Ready}}<span class="ok">READY</span>{{else}}<span class="bad">UNREADY</span>{{end}}
&middot; now {{.Now}} &middot; up {{.UptimeSec}}
&middot; trace sample rate {{.TraceRate}}
&middot; <span class="muted">{{.Build.GoVersion}}, model format {{.Build.ModelFormat}}{{if .Build.Revision}}, rev {{printf "%.12s" .Build.Revision}}{{if .Build.Modified}} (dirty){{end}}{{end}}</span>
</p>
{{if .Reasons}}<ul>{{range .Reasons}}<li class="bad">{{.Code}}: {{.Message}}</li>{{end}}</ul>{{end}}

<h2>SLOs (error budget at current 1h burn)</h2>
<table>
<tr><th>SLO</th><th>objective</th><th class="num">burn 5m</th><th class="num">burn 1h</th><th>budget consumption</th><th>state</th></tr>
{{range .SLOs}}
<tr>
<td title="{{.Description}}">{{.Name}}</td>
<td class="num">{{.Objective}}</td>
<td class="num">{{.FastBurn}}</td>
<td class="num">{{.SlowBurn}}</td>
<td><span class="bar"><span class="fill{{if .Firing}} hot{{end}}" style="width:{{printf "%.0f" .BudgetPct}}%"></span></span> {{.BudgetLabel}}</td>
<td>{{if .Firing}}<span class="bad">burning</span>{{else}}<span class="ok">ok</span>{{end}}</td>
</tr>
{{end}}
</table>

<h2>Models</h2>
{{if .Models}}
<table>
<tr><th>model</th><th>benchmark</th><th class="num">sample</th><th class="num">centers</th><th class="num">AICc</th><th class="num">predictions</th><th class="num">shadow samples (1h)</th><th class="num">shadow mean err (1h)</th><th>drift</th></tr>
{{range .Models}}
<tr>
<td>{{.Name}}</td><td>{{.Benchmark}}</td>
<td class="num">{{.SampleSize}}</td><td class="num">{{.Centers}}</td><td class="num">{{.AICc}}</td>
<td class="num">{{.Predictions}}</td>
<td class="num">{{.ShadowSamples}}</td>
<td class="num">{{.ShadowMeanPct}}</td>
<td>{{if .Drifting}}<span class="bad">drifting</span>{{else}}<span class="ok">ok</span>{{end}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="muted">no models loaded</p>{{end}}

{{if .Retrains}}
<h2>Retraining</h2>
<table>
<tr><th>model</th><th>state</th><th class="num">attempts</th><th class="num">generation</th><th>firing since</th><th>cooldown until</th><th>last outcome</th><th class="num">last size</th><th>last error</th></tr>
{{range .Retrains}}
<tr>
<td>{{.Model}}</td>
<td>{{if eq .Status "retraining"}}<span class="bad">retraining</span>{{else if eq .Status "drift_pending"}}<span class="bad">drift pending</span>{{else}}{{.Status}}{{end}}</td>
<td class="num">{{.Attempts}}</td>
<td class="num">{{.Generation}}</td>
<td>{{.FiringSince}}</td><td>{{.Cooldown}}</td>
<td>{{if eq .LastOutcome "success"}}<span class="ok">success</span>{{else}}{{.LastOutcome}}{{end}}</td>
<td class="num">{{if .LastSize}}{{.LastSize}}{{end}}</td>
<td class="muted">{{.LastError}}</td>
</tr>
{{end}}
</table>
{{end}}

<h2>Routes (windows: {{.Windows}}; quantiles over 5m; sparkline: requests per 10s over 1h)</h2>
<table>
<tr><th>route</th><th class="num">req 1m</th><th class="num">req 5m</th><th class="num">req 1h</th><th class="num">rate/s 1m</th><th class="num">p50 ms</th><th class="num">p90 ms</th><th class="num">p99 ms</th><th>traffic</th><th>recent trace</th></tr>
{{range .Routes}}
<tr>
<td>{{.Route}}</td>
<td class="num">{{.Count1m}}</td><td class="num">{{.Count5m}}</td><td class="num">{{.Count1h}}</td>
<td class="num">{{.Rate1m}}</td>
<td class="num">{{.P50}}</td><td class="num">{{.P90}}</td><td class="num">{{.P99}}</td>
<td>{{.Sparkline}}</td>
<td>{{if .TraceID}}<a href="/tracez?id={{.TraceID}}">{{printf "%.16s" .TraceID}}</a>{{else}}<span class="muted">–</span>{{end}}</td>
</tr>
{{end}}
</table>

{{if .SimPool}}
<h2>Sim worker pool</h2>
<table>
<tr><th>worker</th><th>health</th><th class="num">consecutive fails</th><th class="num">in flight</th><th class="num">requests ok</th><th class="num">requests failed</th></tr>
{{range .SimPool}}
<tr>
<td>{{.URL}}</td>
<td>{{if .Evicted}}<span class="bad">evicted</span>{{else}}<span class="ok">healthy</span>{{end}}</td>
<td class="num">{{.Fails}}</td><td class="num">{{.Inflight}}</td>
<td class="num">{{.OK}}</td><td class="num">{{.Errors}}</td>
</tr>
{{end}}
</table>
{{end}}

<h2>Alerts</h2>
{{if .Alerts}}
<table>
<tr><th>alert</th><th>state</th><th>since</th><th>resolved</th><th class="num">firings</th><th>reason</th></tr>
{{range .Alerts}}
<tr>
<td>{{.Name}}</td>
<td>{{if .Firing}}<span class="bad">firing</span>{{else}}<span class="ok">resolved</span>{{end}}</td>
<td>{{.Since}}</td><td>{{.ResolvedAt}}</td><td class="num">{{.Count}}</td><td>{{.Reason}}</td>
</tr>
{{end}}
</table>
{{else}}<p class="muted">nothing has fired</p>{{end}}

<p class="muted">JSON: <a href="/healthz">/healthz</a> &middot; <a href="/readyz">/readyz</a> &middot; <a href="/alertz">/alertz</a> &middot; <a href="/metricz">/metricz</a> &middot; <a href="/metricz?format=prom">/metricz?format=prom</a> &middot; <a href="/tracez">/tracez</a></p>
</body>
</html>
`))

// msString renders seconds as milliseconds with two decimals ("–" for
// empty windows).
func msString(sec float64, empty bool) string {
	if empty || math.IsNaN(sec) {
		return "–"
	}
	return fmt.Sprintf("%.2f", sec*1e3)
}

func (s *Server) statuszData() statuszData {
	reasons := s.evaluate()
	now := s.clock()
	d := statuszData{
		Now:       now.UTC().Format(time.RFC3339),
		UptimeSec: time.Duration(now.Sub(s.start).Round(time.Second)).String(),
		Build:     Build(),
		Ready:     len(reasons) == 0,
		Reasons:   reasons,
		Alerts:    s.alerts.Alerts(),
		Windows:   "1m / 5m / 1h",
		TraceRate: fmt.Sprintf("%.4g", s.sampler.Rate()),
	}

	for _, slo := range s.slos {
		st := slo.State()
		pct := min(st.BudgetSpent, 1) * 100
		d.SLOs = append(d.SLOs, sloRow{
			Name:        st.Name,
			Description: st.Description,
			Objective:   fmt.Sprintf("%.4g%%", st.Objective*100),
			FastBurn:    fmt.Sprintf("%.2f", st.Fast.BurnRate),
			SlowBurn:    fmt.Sprintf("%.2f", st.Slow.BurnRate),
			BudgetPct:   pct,
			BudgetLabel: fmt.Sprintf("%.0f%%×budget", st.BudgetSpent*100),
			Firing:      st.Firing,
		})
	}

	drift := map[string]driftState{}
	for _, ds := range s.shadow.driftStates() {
		drift[ds.Model] = ds
	}
	for _, e := range s.reg.Entries() {
		row := modelRow{
			Name:        e.Name,
			Benchmark:   e.Model.Name,
			SampleSize:  e.Model.SampleSize,
			Centers:     e.Model.Fit.NumCenters(),
			AICc:        fmt.Sprintf("%.1f", e.Model.Fit.AICc),
			Predictions: cModelPredictions.With(e.Name).Value(),
		}
		if ds, ok := drift[e.Name]; ok {
			row.ShadowSamples = ds.Samples
			row.ShadowMeanPct = fmt.Sprintf("%.2f%%", ds.MeanPct)
			row.Drifting = ds.Firing
		} else {
			row.ShadowMeanPct = "–"
		}
		d.Models = append(d.Models, row)
	}
	d.Retrains = s.retrain.states()
	if s.opt.SimPool != nil {
		d.SimPool = s.opt.SimPool.Snapshot()
	}

	routeNames := make([]string, 0, len(s.wRoutes))
	for r := range s.wRoutes {
		routeNames = append(routeNames, r)
	}
	sort.Strings(routeNames)
	for _, r := range routeNames {
		w := s.wRoutes[r]
		st5 := w.StatsOver(5 * time.Minute)
		empty := st5.Count == 0
		d.Routes = append(d.Routes, routeRow{
			Route:     r,
			Count1m:   w.CountOver(time.Minute),
			Count5m:   st5.Count,
			Count1h:   w.CountOver(time.Hour),
			Rate1m:    fmt.Sprintf("%.2f", float64(w.CountOver(time.Minute))/60),
			P50:       msString(st5.P50, empty),
			P90:       msString(st5.P90, empty),
			P99:       msString(st5.P99, empty),
			Sparkline: role.Sparkline(w.Series(time.Hour)),
		})
		if ex, ok := hRequests.With(r).LatestExemplar(); ok {
			d.Routes[len(d.Routes)-1].TraceID = ex.TraceID
		}
	}
	return d
}

// ---- /statusz ----

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	// Headers go out with the first template write; an execute error
	// mid-page has nothing structured left to report.
	_ = statuszTmpl.Execute(w, s.statuszData())
}
