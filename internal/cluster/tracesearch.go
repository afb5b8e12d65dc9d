package cluster

// tracesearch.go is the router's cross-role trace search: /tracez on
// the router fans a query out to every shard's and worker's JSON trace
// store and joins the partial results.
//
// The list view groups matching summaries by trace ID with a roles
// column, so a trace that was tail-retained on only a subset of roles
// (say, the worker kept it as an error while the router's reservoir
// dropped it) is still findable from one place. The detail view
// re-assembles ONE merged span forest: every role holding the trace
// exports its forest in wire form (span IDs preserved), each batch is
// shifted by a midpoint clock-offset estimate onto the router's
// timeline, and forests are grafted with obs.Trace.Graft under parent
// 0 so remote roots stay roots. Forests already riding in an upstream
// forest are skipped via the graft coverage marker — a span naming a
// "shard" or "worker" target that also carries "clock_offset_ms" means
// that role's spans were grafted upstream at record time — which keeps
// the merged forest free of duplicated subtrees. The merged trace then
// renders through the ordinary obs trace views, including the
// chrome://tracing export.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"predperf/internal/obs"
	"predperf/internal/role"
)

var (
	cTraceSearches  = obs.NewCounter("cluster.trace_searches")
	cTraceSearchErr = obs.NewCounter("cluster.trace_search_errors")
)

// fedTraceRow is one federated search result: the representative
// summary (the role reporting the longest view of the trace, normally
// the edge) plus every role that retained it.
type fedTraceRow struct {
	obs.TraceSummary
	Roles []string `json:"roles"`
}

// handleTracez serves the router's federated /tracez. The list view
// (?q= searches, ?route= exact-filters — the single-role store's
// parameters, applied on every role) merges the fleet's summaries;
// ?id= re-assembles one merged trace across roles. ?format=wire
// exports the router's own store, preserving the single-role wire
// contract, and ?format=json stays compact (un-indented) like the
// single-role list view so existing scrape tooling keeps parsing.
func (rt *Router) handleTracez(w http.ResponseWriter, r *http.Request) {
	if !role.RequireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		rt.serveFederatedTrace(w, r, id)
		return
	}
	query, route := q.Get("q"), q.Get("route")
	switch q.Get("format") {
	case "wire":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.traces.WireTraces(query))
	case "json":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Traces []fedTraceRow `json:"traces"`
		}{rt.federatedSearch(r.Context(), query, route)})
	case "", "html":
		rows := rt.federatedSearch(r.Context(), query, route)
		sums := make([]obs.TraceSummary, len(rows))
		roles := make([][]string, len(rows))
		for i, row := range rows {
			sums[i], roles[i] = row.TraceSummary, row.Roles
		}
		page := obs.TraceList(query, sums, roles)
		page.Title = "fleet tracez"
		page.Status = "federated across router, shards, and workers · " + time.Now().UTC().Format(time.RFC3339)
		page.Links = append(page.Links, obs.Cell{Text: "fleetz", Href: "/fleetz"})
		page.Write(w)
	default:
		role.WriteErr(w, http.StatusBadRequest, "bad_request",
			`unknown format %q (want "html", "json", or "wire")`, q.Get("format"))
	}
}

// fetchSummaries asks one role's trace store for its matching list
// rows. Both list parameters are forwarded; the role's own handler
// applies the same q-over-route precedence as the router's local store.
func (rt *Router) fetchSummaries(ctx context.Context, base, query, route string) ([]obs.TraceSummary, error) {
	var out struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	_, err := rt.fleet.get(ctx, base+"/tracez?format=json&q="+url.QueryEscape(query)+"&route="+url.QueryEscape(route),
		func(body []byte) error { return json.Unmarshal(body, &out) })
	return out.Traces, err
}

// federatedSearch merges the router's own matches with every role's,
// grouped by trace ID. Unreachable roles are skipped (counted), not
// fatal: a partial answer beats none.
func (rt *Router) federatedSearch(ctx context.Context, query, route string) []fedTraceRow {
	cTraceSearches.Inc()
	roles := rt.fleet.roles()
	remote := make([][]obs.TraceSummary, len(roles))
	var wg sync.WaitGroup
	for i, fr := range roles {
		wg.Add(1)
		go func(i int, fr fleetRole) {
			defer wg.Done()
			sums, err := rt.fetchSummaries(ctx, fr.URL, query, route)
			if err != nil {
				cTraceSearchErr.Inc()
				return
			}
			remote[i] = sums
		}(i, fr)
	}
	wg.Wait()

	byID := map[string]*fedTraceRow{}
	var order []string
	add := func(label string, sums []obs.TraceSummary) {
		for _, s := range sums {
			row, ok := byID[s.ID]
			if !ok {
				row = &fedTraceRow{TraceSummary: s}
				byID[s.ID] = row
				order = append(order, s.ID)
			} else if s.DurMS > row.DurMS {
				// The longest view is the outermost one — normally the
				// edge's, spanning the whole request.
				roles := row.Roles
				row.TraceSummary, row.Roles = s, roles
			}
			row.Roles = append(row.Roles, label)
		}
	}
	local := rt.traces.Search(query)
	if query == "" {
		local = rt.traces.Snapshot(route)
	}
	add("router", local)
	for i, fr := range roles {
		add(fr.Role+" "+fr.URL, remote[i])
	}

	out := make([]fedTraceRow, 0, len(byID))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start > out[j].Start })
	return out
}

// ---- federated single-trace assembly ----

// remoteForest is one role's wire export of the requested trace, with
// the midpoint clock-offset estimate for its batch.
type remoteForest struct {
	role   fleetRole
	wire   obs.WireTrace
	offset time.Duration
}

// fetchForest pulls one role's span forest for the trace, estimating
// the role→router clock offset from the request midpoint and the
// exporter's reported clock. A 404 returns (nil forest, nil error):
// the role simply did not retain the trace.
func (rt *Router) fetchForest(ctx context.Context, fr fleetRole, id string) (*remoteForest, error) {
	var exp obs.WireExport
	var rtt time.Duration
	t0 := time.Now()
	status, err := rt.fleet.get(ctx, fr.URL+"/tracez?format=wire&id="+url.QueryEscape(id), func(body []byte) error {
		rtt = time.Since(t0) // the answer is in
		return json.Unmarshal(body, &exp)
	})
	if status == http.StatusNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(exp.Traces) == 0 {
		return nil, nil
	}
	// The exporter stamped its clock at export time; the midpoint of
	// this request approximates the same instant on our clock.
	offset := t0.Add(rtt / 2).Sub(time.Unix(0, exp.NowUnixNS))
	return &remoteForest{role: fr, wire: exp.Traces[0], offset: offset}, nil
}

// markCovered records which fan-out targets a forest already carries:
// a span naming a "shard" or "worker" plus the "clock_offset_ms" graft
// marker means that role's spans were grafted into this forest at
// record time. Transitive by construction — a worker's spans grafted
// into a shard forest ride along when the shard forest is grafted here.
func markCovered(spans []obs.WireSpan, covered map[string]bool) {
	for _, s := range spans {
		var target string
		grafted := false
		for i := 0; i+1 < len(s.Args); i += 2 {
			switch s.Args[i] {
			case "shard", "worker":
				target = s.Args[i+1]
			case "clock_offset_ms":
				grafted = true
			}
		}
		if target != "" && grafted {
			covered[target] = true
		}
	}
}

// metaFromSummary reconstructs retention metadata from a wire summary,
// for traces the router itself did not retain.
func metaFromSummary(s obs.TraceSummary) obs.TraceMeta {
	start, _ := time.Parse(time.RFC3339Nano, s.Start)
	return obs.TraceMeta{
		ID: s.ID, Kind: s.Kind, Route: s.Route, Status: s.Status,
		Start: start, Dur: time.Duration(s.DurMS * float64(time.Millisecond)),
		Err: s.Class == "error" || s.Status >= 500,
	}
}

// serveFederatedTrace re-assembles one trace across every role that
// retained it and renders it through the standard obs trace views
// (HTML span tree, ?format=json, ?format=chrome, ?format=wire).
func (rt *Router) serveFederatedTrace(w http.ResponseWriter, r *http.Request, id string) {
	roles := rt.fleet.roles()
	forests := make([]*remoteForest, len(roles))
	var wg sync.WaitGroup
	for i, fr := range roles {
		wg.Add(1)
		go func(i int, fr fleetRole) {
			defer wg.Done()
			f, err := rt.fetchForest(r.Context(), fr, id)
			if err != nil {
				cTraceSearchErr.Inc()
				return
			}
			forests[i] = f
		}(i, fr)
	}
	wg.Wait()

	ltr, meta, local := rt.traces.Get(id)
	anyRemote := false
	for _, f := range forests {
		if f != nil {
			anyRemote = true
		}
	}
	if !local && !anyRemote {
		http.Error(w, "trace not found on any role", http.StatusNotFound)
		return
	}

	merged := obs.NewTrace(id)
	covered := map[string]bool{}
	graft := func(spans []obs.WireSpan, offset time.Duration) {
		// Parent 0 keeps each forest's roots as roots of the merged
		// trace; internal parent links are remapped by Graft.
		merged.Graft(0, spans, offset)
		markCovered(spans, covered)
	}
	if local {
		graft(ltr.Export(0), 0)
	}
	// Shards before workers (roles() order): a shard forest grafted here
	// marks the workers it already carries as covered.
	for _, f := range forests {
		if f == nil || covered[f.role.URL] {
			continue
		}
		graft(f.wire.Spans, f.offset)
	}

	if !local {
		best := 0
		var bestSum obs.TraceSummary
		for _, f := range forests {
			if f != nil && len(f.wire.Spans) >= best {
				best, bestSum = len(f.wire.Spans), f.wire.Summary
			}
		}
		meta = metaFromSummary(bestSum)
	}

	// Render through a single-entry store so every existing trace view
	// (span tree, chrome export, wire) works on the merged forest, with
	// links resolving back through this federated handler.
	tmp := obs.NewTraceStore(1)
	meta.Keep = true
	tmp.Add(merged, meta)
	tmp.Handler().ServeHTTP(w, r)
}
