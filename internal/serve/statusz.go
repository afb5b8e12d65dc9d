package serve

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

// /statusz: one self-contained HTML page (obs.Page) answering the
// operational questions in one load: what build is this, what models
// does it serve and do they still track the simulator, what does
// request latency look like right now (not since boot), and how much
// SLO error budget is left.

// msString renders seconds as milliseconds with two decimals ("–" for
// empty windows).
func msString(sec float64, empty bool) string {
	if empty || math.IsNaN(sec) {
		return "–"
	}
	return fmt.Sprintf("%.2f", sec*1e3)
}

func (s *Server) statuszPage() obs.Page {
	reasons := s.evaluate()
	now := s.clock()
	b := Build()
	build := fmt.Sprintf("%s, model format %d", b.GoVersion, b.ModelFormat)
	if b.Revision != "" {
		build += fmt.Sprintf(", rev %.12s", b.Revision)
		if b.Modified {
			build += " (dirty)"
		}
	}
	p := obs.Page{
		Title: "predserve status",
		Badge: obs.Verdict(len(reasons) > 0, "UNREADY", "READY"),
		Status: fmt.Sprintf("now %s · up %s · trace sample rate %.4g · %s", now.UTC().Format(time.RFC3339),
			now.Sub(s.start).Round(time.Second), s.sampler.Rate(), build),
		Links: []obs.Cell{{Href: "/healthz"}, {Href: "/readyz"}, {Href: "/alertz"}, {Href: "/metricz"},
			{Href: "/metricz?format=prom"}, {Href: "/tracez"}},
	}
	for _, r := range reasons {
		p.Problems = append(p.Problems, r.Code+": "+r.Message)
	}

	drift := map[string]driftState{}
	for _, ds := range s.shadow.driftStates() {
		drift[ds.Model] = ds
	}
	models := obs.Section{Title: "Models", Empty: "no models loaded",
		Headers: []string{"model", "benchmark", "sample", "centers", "AICc", "predictions",
			"shadow samples (1h)", "shadow mean err (1h)", "drift"}}
	for _, e := range s.reg.Entries() {
		ds, ok := drift[e.Name]
		meanPct := "–"
		if ok {
			meanPct = fmt.Sprintf("%.2f%%", ds.MeanPct)
		}
		models.Rows = append(models.Rows, append(obs.Texts(e.Name, e.Model.Name,
			strconv.Itoa(e.Model.SampleSize), strconv.Itoa(e.Model.Fit.NumCenters()), fmt.Sprintf("%.1f", e.Model.Fit.AICc),
			strconv.FormatInt(cModelPredictions.With(e.Name).Value(), 10), strconv.FormatInt(ds.Samples, 10), meanPct),
			obs.Verdict(ds.Firing, "drifting", "ok")))
	}

	routes := obs.Section{Title: "Routes (windows: 1m / 5m / 1h; quantiles over 5m; sparkline: requests per 10s over 1h)",
		Headers: []string{"route", "req 1m", "req 5m", "req 1h", "rate/s 1m", "p50 ms", "p90 ms", "p99 ms", "traffic", "recent trace"}}
	routeNames := make([]string, 0, len(s.wRoutes))
	for r := range s.wRoutes {
		routeNames = append(routeNames, r)
	}
	sort.Strings(routeNames)
	for _, r := range routeNames {
		w := s.wRoutes[r]
		st5 := w.StatsOver(5 * time.Minute)
		empty := st5.Count == 0
		n1m := w.CountOver(time.Minute)
		trace := obs.Cell{Text: "–", Class: "muted"}
		if ex, ok := hRequests.With(r).LatestExemplar(); ok {
			trace = obs.Cell{Text: fmt.Sprintf("%.16s", ex.TraceID), Href: obs.TraceHref(ex.TraceID)}
		}
		routes.Rows = append(routes.Rows, append(obs.Texts(r, strconv.FormatInt(n1m, 10),
			strconv.FormatInt(st5.Count, 10), strconv.FormatInt(w.CountOver(time.Hour), 10),
			fmt.Sprintf("%.2f", float64(n1m)/60), msString(st5.P50, empty), msString(st5.P90, empty), msString(st5.P99, empty)),
			obs.Sparkline(w.Series(time.Hour)), trace))
	}

	pool := obs.Section{Title: "Sim worker pool",
		Headers: []string{"worker", "health", "consecutive fails", "in flight", "requests ok", "requests failed"}}
	if s.opt.SimPool != nil {
		for _, ws := range s.opt.SimPool.Snapshot() {
			pool.Rows = append(pool.Rows, []obs.Cell{{Text: ws.URL}, obs.Verdict(ws.Evicted, "evicted", "healthy"),
				{Text: strconv.Itoa(ws.Fails)}, {Text: strconv.Itoa(ws.Inflight)},
				{Text: strconv.FormatInt(ws.OK, 10)}, {Text: strconv.FormatInt(ws.Errors, 10)}})
		}
	}

	alerts := obs.Section{Title: "Alerts", Empty: "nothing has fired",
		Headers: []string{"alert", "state", "since", "resolved", "firings", "reason"}}
	for _, a := range s.alerts.Alerts() {
		alerts.Rows = append(alerts.Rows, []obs.Cell{{Text: a.Name}, obs.Verdict(a.Firing, "firing", "resolved"),
			{Text: a.Since}, {Text: a.ResolvedAt}, {Text: strconv.Itoa(a.Count)}, {Text: a.Reason}})
	}
	p.Sections = []obs.Section{s.slo.Section(), models, routes, pool, alerts}
	return p
}

// ---- /statusz ----

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.statuszPage().Write(w)
}
