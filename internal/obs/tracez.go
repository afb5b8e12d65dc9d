package obs

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceStore is a bounded in-memory store behind /tracez with
// tail-based retention: the keep/drop decision happens after the
// request finishes, when its outcome is known. Three classes, each
// capped at the store size — errors are always kept (FIFO within the
// class), traces the caller flags Keep (latency outliers past the
// windowed p99, router failovers) likewise, and everything else goes
// through a reservoir sample so the boring majority is represented
// without unbounded memory.
type TraceStore struct {
	cap int

	mu      sync.Mutex
	errors  []storedTrace // newest last, FIFO eviction
	kept    []storedTrace // newest last, FIFO eviction
	sampled []storedTrace // reservoir (algorithm R)
	offered int64         // traces offered to the reservoir so far
	rng     *rand.Rand
}

type storedTrace struct {
	meta TraceMeta
	tr   *Trace
}

// TraceMeta is the retention-relevant summary of one finished trace.
type TraceMeta struct {
	ID     string
	Route  string // route label
	Status int    // HTTP status; 0 when not applicable
	Start  time.Time
	Dur    time.Duration
	Err    bool // errors are always retained
	Keep   bool // forced retention: latency outlier, router failover
}

// DefTraceStoreSize is the traces every role keeps per retention class
// of its /tracez store.
const DefTraceStoreSize = 64

// NewTraceStore builds a store keeping up to size traces per retention
// class (minimum 1).
func NewTraceStore(size int) *TraceStore {
	if size < 1 {
		size = 1
	}
	return &TraceStore{cap: size, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

// Add offers a finished trace for retention. Nil traces are ignored.
func (s *TraceStore) Add(tr *Trace, meta TraceMeta) {
	if s == nil || tr == nil {
		return
	}
	st := storedTrace{meta: meta, tr: tr}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case meta.Err:
		s.errors = appendFIFO(s.errors, st, s.cap)
	case meta.Keep:
		s.kept = appendFIFO(s.kept, st, s.cap)
	default:
		s.offered++
		if len(s.sampled) < s.cap {
			s.sampled = append(s.sampled, st)
		} else if j := s.rng.Int63n(s.offered); j < int64(s.cap) {
			s.sampled[j] = st
		}
	}
}

func appendFIFO(list []storedTrace, st storedTrace, cap int) []storedTrace {
	list = append(list, st)
	if len(list) > cap {
		copy(list, list[1:])
		list = list[:len(list)-1]
	}
	return list
}

// Get returns the stored trace with the given ID.
func (s *TraceStore) Get(id string) (*Trace, TraceMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, class := range [][]storedTrace{s.errors, s.kept, s.sampled} {
		// Newest first so a recycled request ID resolves to the latest trace.
		for i := len(class) - 1; i >= 0; i-- {
			if class[i].meta.ID == id {
				return class[i].tr, class[i].meta, true
			}
		}
	}
	return nil, TraceMeta{}, false
}

// TraceSummary is the /tracez list-view row.
type TraceSummary struct {
	ID     string  `json:"id"`
	Route  string  `json:"route,omitempty"`
	Status int     `json:"status,omitempty"`
	Class  string  `json:"class"` // error | kept | sampled
	Start  string  `json:"start"`
	DurMS  float64 `json:"dur_ms"`
	Spans  int     `json:"spans"`
}

// collect snapshots the stored traces passing accept (errors, then
// kept, then sampled; newest first within each class), tagged with
// their class name.
func (s *TraceStore) collect(accept func(TraceMeta) bool) []classedTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]classedTrace, 0, len(s.errors)+len(s.kept)+len(s.sampled))
	for _, c := range []struct {
		name string
		list []storedTrace
	}{{"error", s.errors}, {"kept", s.kept}, {"sampled", s.sampled}} {
		for i := len(c.list) - 1; i >= 0; i-- {
			if accept == nil || accept(c.list[i].meta) {
				out = append(out, classedTrace{c.list[i], c.name})
			}
		}
	}
	return out
}

type classedTrace struct {
	storedTrace
	class string
}

func (c classedTrace) summary() TraceSummary {
	return TraceSummary{
		ID:     c.meta.ID,
		Route:  c.meta.Route,
		Status: c.meta.Status,
		Class:  c.class,
		Start:  c.meta.Start.UTC().Format(time.RFC3339Nano),
		DurMS:  float64(c.meta.Dur) / float64(time.Millisecond),
		Spans:  c.tr.Len(),
	}
}

// Snapshot lists retained traces (errors, then kept, then sampled;
// newest first within each class), optionally filtered by route.
func (s *TraceStore) Snapshot(route string) []TraceSummary {
	return summaries(s.collect(func(m TraceMeta) bool {
		return route == "" || m.Route == route
	}))
}

// Search lists retained traces matching the /tracez?q= query language:
// an exact trace ID, the keyword "error" (error-class traces), a
// "min_ms:<n>" duration floor, or a route substring. An empty query
// matches everything.
func (s *TraceStore) Search(q string) []TraceSummary {
	return summaries(s.collect(func(m TraceMeta) bool { return matchTrace(m, q) }))
}

func summaries(list []classedTrace) []TraceSummary {
	out := make([]TraceSummary, len(list))
	for i, c := range list {
		out[i] = c.summary()
	}
	return out
}

// matchTrace implements the shared trace query language (see Search).
func matchTrace(m TraceMeta, q string) bool {
	q = strings.TrimSpace(q)
	switch {
	case q == "":
		return true
	case q == m.ID:
		return true
	case q == "error":
		return m.Err || m.Status >= 500
	case strings.HasPrefix(q, "min_ms:"):
		v, err := strconv.ParseFloat(strings.TrimPrefix(q, "min_ms:"), 64)
		return err == nil && float64(m.Dur)/float64(time.Millisecond) >= v
	default:
		return m.Route != "" && strings.Contains(m.Route, q)
	}
}

// Handler serves the store: HTML list by default, ?format=json for the
// machine view (&route= exact-filters, &q= searches: trace ID |
// "error" | min_ms:<n> | route substring), ?id= for one trace (HTML span
// tree, &format=json, or &format=chrome for a chrome://tracing
// download). An unknown format gets the HTML view.
func (s *TraceStore) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s requires GET, got %s", r.URL.Path, r.Method))
			return
		}
		q := r.URL.Query()
		if id := q.Get("id"); id != "" {
			s.serveTrace(w, id, q.Get("format"))
			return
		}
		query := q.Get("q")
		var sums []TraceSummary
		if query != "" {
			sums = s.Search(query)
		} else {
			sums = s.Snapshot(q.Get("route"))
		}
		if q.Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				Traces []TraceSummary `json:"traces"`
			}{sums})
			return
		}
		traceList(query, sums).Write(w)
	})
}

// spanRow is one span in the detail views, pre-ordered depth-first.
type spanRow struct {
	ID       int64    `json:"id"`
	Parent   int64    `json:"parent,omitempty"`
	Name     string   `json:"name"`
	OffsetUS int64    `json:"offset_us"` // start relative to earliest span
	DurUS    int64    `json:"dur_us"`
	Depth    int      `json:"depth"`
	Args     []string `json:"args,omitempty"`
}

func (s *TraceStore) serveTrace(w http.ResponseWriter, id, format string) {
	tr, meta, ok := s.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "trace_not_found", fmt.Sprintf("no trace %q is held (GET /tracez lists them)", id))
		return
	}
	switch format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "trace-"+id+".json"))
		tr.WriteChromeTrace(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			ID     string    `json:"id"`
			Route  string    `json:"route,omitempty"`
			Status int       `json:"status,omitempty"`
			Start  string    `json:"start"`
			DurMS  float64   `json:"dur_ms"`
			Spans  []spanRow `json:"spans"`
		}{
			ID: meta.ID, Route: meta.Route, Status: meta.Status,
			Start: meta.Start.UTC().Format(time.RFC3339Nano),
			DurMS: float64(meta.Dur) / float64(time.Millisecond),
			Spans: spanTree(tr),
		})
	default:
		tracePage(meta, tr).Write(w)
	}
}

// spanTree orders a trace's spans depth-first (children under parents,
// siblings by start time) and annotates depth for indentation. Spans
// whose parent is missing are treated as roots, matching
// WriteChromeTrace.
func spanTree(tr *Trace) []spanRow {
	spans := tr.Spans()
	if len(spans) == 0 {
		return nil
	}
	min := spans[0].Start
	ids := make(map[int64]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
		if s.Start.Before(min) {
			min = s.Start
		}
	}
	children := make(map[int64][]SpanInfo)
	var roots []SpanInfo
	for _, s := range spans {
		if s.Parent != 0 && ids[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	byStart := func(list []SpanInfo) {
		sort.Slice(list, func(i, j int) bool { return list[i].Start.Before(list[j].Start) })
	}
	byStart(roots)
	out := make([]spanRow, 0, len(spans))
	var walk func(s SpanInfo, depth int)
	walk = func(s SpanInfo, depth int) {
		out = append(out, spanRow{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			OffsetUS: s.Start.Sub(min).Microseconds(),
			DurUS:    s.Dur.Microseconds(),
			Depth:    depth,
			Args:     s.Args,
		})
		cs := children[s.ID]
		byStart(cs)
		for _, c := range cs {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// traceList is the /tracez list view of sums, with the search box
// holding query.
func traceList(query string, sums []TraceSummary) Page {
	headers := []string{"trace", "class", "route", "status", "start", "ms", "spans", ""}
	rows := make([][]Cell, len(sums))
	for i, s := range sums {
		href := TraceHref(s.ID)
		class := Cell{Text: s.Class}
		if s.Class == "error" {
			class.Class = "bad"
		}
		status := Cell{Text: "-", Class: "muted"}
		if s.Status != 0 {
			code := strconv.Itoa(s.Status)
			status = Verdict(s.Status >= 500, code, code)
		}
		rows[i] = []Cell{{Text: s.ID, Href: href}, class, {Text: s.Route}, status,
			{Text: s.Start, Class: "muted"}, {Text: strconv.FormatFloat(s.DurMS, 'f', 2, 64)}, {Text: strconv.Itoa(s.Spans)},
			{Text: "chrome", Href: href + "&format=chrome"}}
	}
	return Page{
		Title:    "tracez",
		Status:   "retained traces, tail-sampled · " + time.Now().UTC().Format(time.RFC3339),
		Search:   true,
		Query:    query,
		Sections: []Section{{Title: "Traces", Headers: headers, Rows: rows, Empty: "no traces retained yet"}},
		Links:    []Cell{{Text: "json", Href: "/tracez?format=json"}, {Text: "statusz", Href: "/statusz"}},
	}
}

// TraceHref links to one trace's /tracez view. The ID is query-escaped:
// the edge admits only IDs that need no escaping (ValidRequestID), but
// a store holds whatever ID its caller gives a trace.
func TraceHref(id string) string { return "/tracez?id=" + url.QueryEscape(id) }

// tracePage is the detail view of one trace: its span tree, indented by
// depth.
func tracePage(meta TraceMeta, tr *Trace) Page {
	status := meta.Route
	if meta.Status != 0 {
		status += " · status " + strconv.Itoa(meta.Status)
	}
	status += fmt.Sprintf(" · %s · %.2f ms", meta.Start.UTC().Format(time.RFC3339Nano), float64(meta.Dur)/float64(time.Millisecond))
	var rows [][]Cell
	for _, s := range spanTree(tr) {
		rows = append(rows, []Cell{{Text: s.Name, Depth: s.Depth}, {Text: strconv.FormatInt(s.OffsetUS, 10)},
			{Text: strconv.FormatInt(s.DurUS, 10)}, {Text: joinArgs(s.Args), Class: "muted"}})
	}
	href := TraceHref(meta.ID)
	return Page{
		Title:    "trace " + meta.ID,
		Status:   status,
		Sections: []Section{{Title: "Spans", Headers: []string{"span", "offset µs", "dur µs", "args"}, Rows: rows, Empty: "no spans"}},
		Links: []Cell{{Text: "json", Href: href + "&format=json"}, {Text: "chrome export", Href: href + "&format=chrome"},
			{Text: "back", Href: "/tracez"}},
	}
}

// joinArgs renders span args as "k=v k=v", an odd trailing key alone.
func joinArgs(args []string) string {
	parts := make([]string, 0, (len(args)+1)/2)
	for i := 0; i < len(args); i += 2 {
		if i+1 < len(args) {
			parts = append(parts, args[i]+"="+args[i+1])
		} else {
			parts = append(parts, args[i])
		}
	}
	return strings.Join(parts, " ")
}
