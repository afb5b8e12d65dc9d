package obs

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// traceparentRoundTrips and malformedTraceparents also seed
// FuzzTraceparent's corpus.
var (
	traceparentRoundTrips = []SpanContext{
		{TraceID: "8f3a9b2c11aa00ff", ParentID: 42, Sampled: true},
		{TraceID: "client-id-7", ParentID: 0, Sampled: false},
		{TraceID: "a-b-c.d_e", ParentID: 1 << 40, Sampled: true},
	}
	malformedTraceparents = []string{
		"",
		"00-",
		"01-abc-0000000000000001-01", // unsupported version
		"00-abc-xyz-01",              // non-hex span ID
		"00-abc-0000000000000001-zz", // non-hex flags
		"00-abc-01",                  // missing field
		"00-" + strings.Repeat("a", 65) + "-0000000000000001-01", // trace ID too long
		"00-a b-0000000000000001-01",                             // bad charset
	}
)

func TestTraceparentRoundTrip(t *testing.T) {
	for _, want := range traceparentRoundTrips {
		got, ok := ParseTraceparent(FormatTraceparent(want))
		if !ok {
			t.Fatalf("ParseTraceparent(%q) failed", FormatTraceparent(want))
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	for _, s := range malformedTraceparents {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

func TestValidRequestID(t *testing.T) {
	valid := []string{"a", "client-id-7", "A.b_C-9", strings.Repeat("x", 64)}
	for _, s := range valid {
		if !ValidRequestID(s) {
			t.Errorf("ValidRequestID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", strings.Repeat("x", 65), "has space", "new\nline", "quote\"", "semi;colon", "slash/"}
	for _, s := range invalid {
		if ValidRequestID(s) {
			t.Errorf("ValidRequestID(%q) = true, want false", s)
		}
	}
}

func TestSamplerDeterministicAndBounded(t *testing.T) {
	all, none := NewSampler(1), NewSampler(0)
	if !all.Sample("x") || none.Sample("x") {
		t.Fatal("rate-1 sampler must keep everything, rate-0 nothing")
	}
	half := NewSampler(0.5)
	kept := 0
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		a, b := half.Sample(id), half.Sample(id)
		if a != b {
			t.Fatalf("sampler not deterministic for %q", id)
		}
		if a {
			kept++
		}
	}
	if kept < 350 || kept > 650 {
		t.Errorf("rate-0.5 sampler kept %d/1000, want roughly half", kept)
	}
}

// TestSamplerMonotoneInRate: each decision is deterministic, and
// raising the rate only ever adds sampled requests.
func TestSamplerMonotoneInRate(t *testing.T) {
	ids := make([]string, 512)
	for i := range ids {
		ids[i] = fmt.Sprintf("req-%04d", i)
	}
	prev := map[string]bool{}
	for _, rate := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1} {
		s := NewSampler(rate)
		cur := map[string]bool{}
		for _, id := range ids {
			got := s.Sample(id)
			if got != NewSampler(rate).Sample(id) {
				t.Fatalf("rate %v id %s: nondeterministic decision", rate, id)
			}
			cur[id] = got
		}
		for id, was := range prev {
			if was && !cur[id] {
				t.Fatalf("raising rate to %v dropped previously sampled id %s", rate, id)
			}
		}
		prev = cur
	}
	for _, id := range ids {
		if !prev[id] {
			t.Fatalf("rate 1 did not sample %s", id)
		}
	}
}

func TestSamplerRate(t *testing.T) {
	for _, r := range []float64{0, 0.25, 0.5, 1} {
		got := NewSampler(r).Rate()
		if diff := got - r; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Rate(%v) = %v", r, got)
		}
	}
}

func TestExportGraftParentage(t *testing.T) {
	// Remote side: a root with one child.
	remote := NewTrace("remote")
	rctx := WithTrace(context.Background(), remote)
	rctx, endRoot := StartSpanCtx(rctx, "worker.request")
	_, endChild := StartSpanCtx(rctx, "worker.eval")
	endChild()
	endRoot()
	wire := remote.Export()
	if len(wire) != 2 {
		t.Fatalf("exported %d spans, want 2", len(wire))
	}

	// Local side: graft under a hop span.
	local := NewTrace("local")
	lctx := WithTrace(context.Background(), local)
	lctx, endHop := StartSpanArgs(lctx, "router.forward", "shard", "s1")
	hopID := SpanIDFrom(lctx)
	local.Graft(hopID, wire, 0)
	endHop("status", "200")

	spans := local.Spans()
	byName := map[string]SpanInfo{}
	ids := map[int64]SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
		ids[s.ID] = s
	}
	root, ok := byName["worker.request"]
	if !ok {
		t.Fatal("grafted root missing")
	}
	if root.Parent != hopID {
		t.Errorf("grafted root parent = %d, want hop span %d", root.Parent, hopID)
	}
	child := byName["worker.eval"]
	if child.Parent != root.ID {
		t.Errorf("grafted child parent = %d, want remapped root %d", child.Parent, root.ID)
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := ids[s.Parent]; !ok {
				t.Errorf("span %q has dangling parent %d", s.Name, s.Parent)
			}
		}
	}
}

func TestGraftClockOffsetShiftsStarts(t *testing.T) {
	sentAt := time.Now()
	// A remote span stamped one hour in the "future" relative to the
	// caller's clock.
	skew := time.Hour
	wire := []WireSpan{{ID: 1, Name: "w", Start: sentAt.Add(skew).UnixNano(), Dur: int64(time.Millisecond)}}
	off := ClockOffset(sentAt, 3*time.Millisecond, wire)
	local := NewTrace("local")
	local.Graft(0, wire, off)
	got := local.Spans()[0].Start
	if d := got.Sub(sentAt); d < 0 || d > 10*time.Millisecond {
		t.Errorf("grafted span lands %v after send, want within the rtt", d)
	}
}

func TestEncodeDecodeSpans(t *testing.T) {
	spans := []WireSpan{
		{ID: 1, Name: "a", Start: 100, Dur: 50, Args: []string{"k", "v"}},
		{ID: 2, Parent: 1, Name: "b", Start: 120, Dur: 10},
	}
	got, err := DecodeSpans(EncodeSpans(spans))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Parent != 1 || got[0].Args[1] != "v" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if s, err := DecodeSpans(""); err != nil || s != nil {
		t.Errorf("empty token: got %v, %v", s, err)
	}
	if _, err := DecodeSpans("not base64!!"); err == nil {
		t.Error("want error for invalid base64")
	}
}

// checkSpanTrailer requires tok, EncodeSpans(forest), to fit
// MaxSpanTrailerBytes and to decode to the whole forest, as a
// json.Marshal round trip gives it, or to its longest prefix that fits
// followed by a DroppedSpans span counting the rest.
func checkSpanTrailer(t *testing.T, forest []WireSpan, tok string) {
	t.Helper()
	if len(forest) == 0 {
		if tok != "" {
			t.Fatalf("an empty forest encodes to %q", tok)
		}
		return
	}
	if len(tok) > MaxSpanTrailerBytes {
		t.Fatalf("%d spans encode to %d bytes, past the %d-byte bound", len(forest), len(tok), MaxSpanTrailerBytes)
	}
	got, err := DecodeSpans(tok)
	if err != nil {
		t.Fatalf("decoding an encoded forest: %v", err)
	}
	raw, err := json.Marshal(forest)
	if err != nil {
		t.Fatal(err)
	}
	var want []WireSpan
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if base64.StdEncoding.EncodedLen(len(raw)) <= MaxSpanTrailerBytes {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a forest that fits came back as %+v, want %+v", got, want)
		}
		return
	}
	k := len(got) - 1
	if k < 0 || k >= len(forest) {
		t.Fatalf("a cut forest of %d spans came back with %d", len(forest), len(got))
	}
	marker := got[k]
	if dropped := fmt.Sprint(len(forest) - k); marker.Name != DroppedSpans || marker.Dur != 0 ||
		!reflect.DeepEqual(marker.Args, []string{"dropped", dropped}) {
		t.Fatalf("cut to %d of %d spans, but the last span is %+v, want %s with dropped %s", k, len(forest), marker, DroppedSpans, dropped)
	}
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("the kept spans %+v are not the forest's first %d, %+v", got[:k], k, want[:k])
	}
	next := forest
	if k+1 < len(forest) {
		next = append(slices.Clone(forest[:k+1]), droppedMarker(forest, k+1))
	}
	if raw, _ := json.Marshal(next); base64.StdEncoding.EncodedLen(len(raw)) <= MaxSpanTrailerBytes {
		t.Fatalf("cut to %d spans, but %d fit with the marker", k, k+1)
	}
}

// TestEncodeSpansCutsToBound: a forest past MaxSpanTrailerBytes is cut
// to its longest prefix that fits beside a DroppedSpans span, whatever
// its spans hold; one that fits is sent whole.
func TestEncodeSpansCutsToBound(t *testing.T) {
	many := func(n int, name string, args ...string) []WireSpan {
		var f []WireSpan
		for i := 1; i <= n; i++ {
			f = append(f, WireSpan{ID: int64(i), Parent: int64(i / 2), Name: name, Start: 1760700000123456789 + int64(i), Dur: 41234, Args: args})
		}
		return f
	}
	var extreme []WireSpan
	for i := range 200 {
		extreme = append(extreme, WireSpan{ID: math.MaxInt64 - int64(i), Parent: math.MinInt64, Start: math.MinInt64, Dur: math.MaxInt64})
	}
	forests := map[string][]WireSpan{
		"fits":             many(20, "cluster.worker_eval", "worker", "w1"),
		"search":           many(129, "cluster.pool_attempt", "worker", "http://127.0.0.1:41234", "outcome", "ok"),
		"escaped":          many(100, "<escaped> & \"quoted\"", "k", "\n"),
		"one huge span":    {{ID: 7, Name: "big", Args: []string{"k", strings.Repeat("x", 8<<10)}}},
		"huge last span":   append(many(5, "a"), WireSpan{ID: 9, Name: strings.Repeat("y", 5000)}),
		"extreme integers": extreme,
	}
	for name, forest := range forests {
		t.Run(name, func(t *testing.T) {
			checkSpanTrailer(t, forest, EncodeSpans(forest))
		})
	}
	if _, err := DecodeSpans(strings.Repeat("A", MaxSpanTrailerBytes+3)); err == nil {
		t.Error("DecodeSpans accepted a token past MaxSpanTrailerBytes")
	}
}

func TestStartSpanArgsExtras(t *testing.T) {
	tr := NewTrace("t")
	ctx := WithTrace(context.Background(), tr)
	_, end := StartSpanArgs(ctx, "cluster.pool_attempt", "worker", "w1")
	end("outcome", "ok")
	s := tr.Spans()[0]
	want := []string{"worker", "w1", "outcome", "ok"}
	if len(s.Args) != len(want) {
		t.Fatalf("args = %v, want %v", s.Args, want)
	}
	for i := range want {
		if s.Args[i] != want[i] {
			t.Fatalf("args = %v, want %v", s.Args, want)
		}
	}
}

func TestTraceStoreRetention(t *testing.T) {
	st := NewTraceStore(4)
	add := func(id string, errFlag, keep bool) {
		st.Add(NewTrace(id), TraceMeta{ID: id, Route: "/v1/predict", Err: errFlag, Keep: keep, Start: time.Now()})
	}
	// Errors and kept traces survive arbitrary sampled churn.
	add("err-1", true, false)
	add("keep-1", false, true)
	for i := 0; i < 100; i++ {
		add(NewTraceID(), false, false)
	}
	if _, _, ok := st.Get("err-1"); !ok {
		t.Error("error trace evicted by sampled churn")
	}
	if _, _, ok := st.Get("keep-1"); !ok {
		t.Error("kept trace evicted by sampled churn")
	}
	sums := st.Snapshot("")
	classes := map[string]int{}
	for _, s := range sums {
		classes[s.Class]++
	}
	if classes["sampled"] > 4 {
		t.Errorf("reservoir holds %d traces, cap 4", classes["sampled"])
	}
	// FIFO within the error class.
	for i := 0; i < 6; i++ {
		add(NewTraceID()+"-err", true, false)
	}
	if _, _, ok := st.Get("err-1"); ok {
		t.Error("oldest error not evicted FIFO at capacity")
	}
	// Route filter.
	st.Add(NewTrace("other-route"), TraceMeta{ID: "other-route", Route: "/v1/search", Err: true, Start: time.Now()})
	for _, s := range st.Snapshot("/v1/search") {
		if s.Route != "/v1/search" {
			t.Errorf("route filter leaked %q", s.Route)
		}
	}
}

func TestTraceStoreHandler(t *testing.T) {
	st := NewTraceStore(8)
	tr := NewTrace("handler-trace")
	ctx := WithTrace(context.Background(), tr)
	_, end := StartSpanCtx(ctx, "serve.search")
	end()
	st.Add(tr, TraceMeta{ID: "handler-trace", Route: "/v1/search", Status: 200, Start: time.Now(), Dur: time.Millisecond})

	h := st.Handler()
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	if rec := get("/tracez?format=json"); !strings.Contains(rec.Body.String(), `"id":"handler-trace"`) {
		t.Errorf("list json missing trace: %s", rec.Body.String())
	}
	if rec := get("/tracez?id=handler-trace&format=json"); !strings.Contains(rec.Body.String(), `"name":"serve.search"`) {
		t.Errorf("detail json missing span: %s", rec.Body.String())
	}
	if rec := get("/tracez?id=handler-trace&format=chrome"); !strings.Contains(rec.Body.String(), `"traceEvents"`) {
		t.Errorf("chrome export malformed: %s", rec.Body.String())
	}
	if rec := get("/tracez"); !strings.Contains(rec.Body.String(), "handler-trace") {
		t.Error("html list missing trace")
	}
	// Errors take the structured JSON shape every role answers with.
	var e struct {
		Error APIError `json:"error"`
	}
	rec := get("/tracez?id=nope")
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusNotFound || err != nil ||
		e.Error.Code != "trace_not_found" || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("missing trace: %d %q %s, want 404 trace_not_found in JSON", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tracez", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusMethodNotAllowed || err != nil ||
		e.Error.Code != "method_not_allowed" || rec.Header().Get("Allow") != http.MethodGet ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("POST /tracez: %d %v %s, want 405 method_not_allowed in JSON with Allow: GET", rec.Code, rec.Header(), rec.Body)
	}

	// A store holds whatever ID its caller gives a trace, and a route or
	// a span arg may hold any character: the list links the ID
	// query-escaped and both views show it, and the span's args,
	// HTML-escaped.
	const id = "retrain-a<b>&c-1"
	tr = NewTrace(id)
	_, end = StartSpanCtx(WithTrace(context.Background(), tr), "serve.retrain", "model", "a<b>&c")
	end()
	st.Add(tr, TraceMeta{ID: id, Route: "a<b>&c", Start: time.Now(), Dur: time.Millisecond, Keep: true})
	for url, wants := range map[string][]string{
		"/tracez":                           {`href="/tracez?id=retrain-a%3Cb%3E%26c-1"`, "retrain-a&lt;b&gt;&amp;c-1"},
		"/tracez?id=retrain-a%3Cb%3E%26c-1": {"retrain-a&lt;b&gt;&amp;c-1", "model=a&lt;b&gt;&amp;c"},
	} {
		body := get(url).Body.String()
		for _, want := range wants {
			if !strings.Contains(body, want) {
				t.Errorf("%s lacks %q:\n%s", url, want, body)
			}
		}
		if strings.Contains(body, "a<b>&c") {
			t.Errorf("%s carries a<b>&c unescaped", url)
		}
	}
}

func TestHistogramExemplarExposition(t *testing.T) {
	Reset()
	defer Reset()
	h := NewHistogram("test.exemplar_seconds", []float64{0.1, 1})
	h.ObserveWithExemplar(0.05, "trace-abc")
	h.Observe(0.5) // no exemplar on this bucket
	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# {trace_id="trace-abc"} 0.05`) {
		t.Errorf("exposition missing exemplar:\n%s", out)
	}
	if ex, ok := h.LatestExemplar(); !ok || ex.TraceID != "trace-abc" {
		t.Errorf("LatestExemplar = %+v, %v", ex, ok)
	}
}

// TestGraftRepeatedSpanID: a forest that repeats a span ID, the second
// copy parented on the first, used to graft both under one local ID, so
// the span was its own parent and spanTree and WriteChromeTrace recursed
// until the stack overflowed. Each copy now gets its own ID.
func TestGraftRepeatedSpanID(t *testing.T) {
	local := NewTrace("local")
	ctx, endHop := StartSpanCtx(WithTrace(context.Background(), local), "router.forward")
	hopID := SpanIDFrom(ctx)
	local.Graft(hopID, []WireSpan{
		{ID: 1, Name: "first", Start: 100, Dur: 10},
		{ID: 1, Parent: 1, Name: "second", Start: 105, Dur: 1},
	}, 0)
	endHop()
	rows := spanTree(local)
	if len(rows) != 3 {
		t.Fatalf("span tree has %d rows, want 3: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if r.ID == r.Parent {
			t.Errorf("span %q is its own parent", r.Name)
		}
	}
	if err := local.WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestGraftHostileForestIsATree: cycles, self-parents, repeated IDs
// and dangling parents all graft as a tree under the hop span, every
// span reachable from it.
func TestGraftHostileForestIsATree(t *testing.T) {
	forest := []WireSpan{
		{ID: 5, Parent: 6, Name: "cycle-a"},
		{ID: 6, Parent: 5, Name: "cycle-b"},
		{ID: 7, Parent: 7, Name: "self"},
		{ID: 8, Parent: 99, Name: "dangling"},
		{ID: 9, Parent: 8, Name: "child"},
		{ID: 9, Parent: 9, Name: "repeat"},
		{ID: 10, Parent: 9, Name: "grandchild"},
	}
	local := NewTrace("local")
	ctx, _ := StartSpanCtx(WithTrace(context.Background(), local), "router.forward")
	hop := SpanIDFrom(ctx) // left open, so only the grafted spans are recorded
	local.Graft(hop, forest, 0)
	spans := local.Spans()
	if len(spans) != len(forest) {
		t.Fatalf("grafted %d spans, want %d", len(spans), len(forest))
	}
	parent := map[int64]int64{}
	for _, s := range spans {
		if _, dup := parent[s.ID]; dup {
			t.Fatalf("local ID %d given twice", s.ID)
		}
		parent[s.ID] = s.Parent
	}
	for _, s := range spans {
		// Parents come before children in ID order, so every chain
		// climbs to the hop span.
		id := s.ID
		for id != hop {
			p, ok := parent[id]
			if !ok || p >= id {
				t.Fatalf("span %q (%d): chain breaks at %d, parent %d", s.Name, s.ID, id, p)
			}
			id = p
		}
	}
	byName := map[string]SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["dangling"].ID {
		t.Errorf("child lost its parent: %+v", byName["child"])
	}
	for _, name := range []string{"cycle-a", "self", "dangling", "repeat"} {
		if byName[name].Parent != hop {
			t.Errorf("%q should hang under the hop span %d: %+v", name, hop, byName[name])
		}
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("a link to a repeated ID should reach the first span with it, %d: %+v",
			byName["child"].ID, byName["grandchild"])
	}
}

// TestEncodeSpansMatchesMarshal: the hand-written trailer JSON is
// json.Marshal's bytes, and a forest with a string json.Marshal escapes
// takes json.Marshal itself; both decode back through DecodeSpans.
func TestEncodeSpansMatchesMarshal(t *testing.T) {
	forests := [][]WireSpan{
		{{ID: 1, Name: "serve.predict", Start: 1760700000123456789, Dur: 12345}},
		{
			{ID: 3, Parent: 2, Name: "serve.coalesce_wait", Start: -1, Dur: 0, Args: []string{"k", ""}},
			{ID: 2, Parent: 1, Name: "a", Start: math.MaxInt64, Dur: math.MinInt64, Args: []string{}},
			{ID: math.MinInt64, Name: "", Args: []string{"route", "/v1/predict"}},
		},
		{{ID: 1, Name: "<html> & \"quotes\"", Args: []string{"é", "\n"}}},
	}
	for _, spans := range forests {
		want, err := json.Marshal(spans)
		if err != nil {
			t.Fatal(err)
		}
		tok := EncodeSpans(spans)
		raw, err := base64.StdEncoding.DecodeString(tok)
		if err != nil || string(raw) != string(want) {
			t.Errorf("EncodeSpans JSON = %s, json.Marshal writes %s", raw, want)
		}
		got, err := DecodeSpans(tok)
		if err != nil {
			t.Fatal(err)
		}
		var oracle []WireSpan
		if err := json.Unmarshal(want, &oracle); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, oracle) {
			t.Errorf("DecodeSpans = %+v, json.Unmarshal decodes %+v", got, oracle)
		}
	}
}
