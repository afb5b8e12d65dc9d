package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a request- or run-scoped collection of timed spans forming a
// parent/child forest. A Trace carries an ID (the X-Request-Id of a
// served request, or a generated run ID for a CLI build), travels
// through the stack via context.Context (WithTrace / TraceFrom), and is
// recorded by the same StartSpanCtx calls that feed the global span
// aggregates — so one instrumentation point yields both the flat
// count/total/max stats of /metricz and a chrome://tracing-loadable
// timeline.
//
// Recording a span is an append under the trace's mutex at span *end*;
// nothing a trace does feeds back into the traced computation, so
// results are bit-identical with tracing on or off.
type Trace struct {
	id     string
	start  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []traceSpan
}

// traceSpan is one completed span. Parent is 0 for roots.
type traceSpan struct {
	id     int64
	parent int64
	name   string
	start  time.Time
	dur    time.Duration
	args   []string // alternating key, value
}

// NewTrace creates a trace with the given ID (a fresh random ID when
// empty).
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id, start: time.Now()}
}

// idFallback distinguishes generated IDs if crypto/rand ever fails.
var idFallback atomic.Int64

// NewTraceID returns a 16-hex-character random ID, suitable for
// X-Request-Id headers and trace file names.
func NewTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("fallback-%d", idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace's identifier.
func (t *Trace) ID() string { return t.id }

// Len reports how many spans have completed so far.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// SpanInfo is the exported view of one completed span, for tests and
// tooling that inspect a trace without going through the Chrome export.
type SpanInfo struct {
	ID     int64
	Parent int64 // 0 for roots
	Name   string
	Start  time.Time
	Dur    time.Duration
	Args   []string // alternating key, value
}

// Spans returns a snapshot of the completed spans in completion order.
func (t *Trace) Spans() []SpanInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanInfo{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, Dur: s.dur, Args: s.args}
	}
	return out
}

func (t *Trace) record(s traceSpan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type ctxKey int

const (
	traceKey ctxKey = iota
	spanIDKey
	requestIDKey
)

// WithTrace returns a context carrying the trace; StartSpanCtx calls
// below it attach their spans to it.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the active trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// StartSpanCtx begins a named span on ctx and returns the child context
// (so nested StartSpanCtx calls parent under this span — including from
// worker goroutines that captured the context) and the function that
// ends it. The span is recorded in the context's Trace when one is
// present, and in the global per-stage aggregates when Enabled; with
// neither sink active it is a no-op that reads no clock. Optional kv
// pairs (alternating key, value) annotate the span in the Chrome trace
// export.
//
// The idiom is
//
//	ctx, end := obs.StartSpanCtx(ctx, "core.sample")
//	defer end()
//
// A caller that holds no context passes context.Background(), and the
// span feeds the aggregates only.
func StartSpanCtx(ctx context.Context, name string, kv ...string) (context.Context, func()) {
	tr := TraceFrom(ctx)
	if tr == nil {
		if !enabled.Load() {
			return ctx, noop
		}
		s := span(name)
		t0 := time.Now()
		return ctx, func() { s.record(time.Since(t0)) }
	}
	var s *spanStats
	if enabled.Load() {
		s = span(name)
	}
	parent, _ := ctx.Value(spanIDKey).(int64)
	id := tr.nextID.Add(1)
	ctx = context.WithValue(ctx, spanIDKey, id)
	t0 := time.Now()
	return ctx, func() {
		d := time.Since(t0)
		if s != nil {
			s.record(d)
		}
		tr.record(traceSpan{id: id, parent: parent, name: name, start: t0, dur: d, args: kv})
	}
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// "X" complete events with microsecond timestamps, plus "M" metadata
// events naming the process and tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the trace as Chrome trace-event JSON,
// loadable in chrome://tracing and Perfetto. Spans are laid out on
// numbered tracks ("threads") so that every track is properly nested: a
// span's first concurrent child shares its parent's track, and siblings
// that overlap it get fresh tracks — the parallel fan-out of a build
// (LHS scoring workers, per-design-point sims, RBF grid cells) renders
// as side-by-side lanes under the stage that spawned them.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	spans := make([]traceSpan, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	// Sort children under each parent by start time for greedy track
	// packing (stable layout regardless of completion order).
	children := map[int64][]*traceSpan{}
	byID := map[int64]*traceSpan{}
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		parent := s.parent
		if _, ok := byID[parent]; !ok {
			parent = 0 // orphan (parent span still open): treat as root
		}
		children[parent] = append(children[parent], s)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool {
			if !cs[i].start.Equal(cs[j].start) {
				return cs[i].start.Before(cs[j].start)
			}
			return cs[i].dur > cs[j].dur
		})
	}

	track := map[int64]int64{} // span id → track
	var nextTrack int64
	// place assigns s's subtree, rooted on the given track. A child may
	// reuse a track once the previous span placed there has ended;
	// otherwise it opens a new track, which is never recycled across
	// subtrees (tracks are cheap, overlap bugs are not).
	var place func(id int64, tid int64)
	place = func(id int64, tid int64) {
		if id != 0 {
			track[id] = tid
		}
		type lane struct {
			tid int64
			end time.Time
		}
		lanes := []lane{{tid: tid}}
		for _, c := range children[id] {
			placed := false
			for i := range lanes {
				if !c.start.Before(lanes[i].end) {
					place(c.id, lanes[i].tid)
					lanes[i].end = c.start.Add(c.dur)
					placed = true
					break
				}
			}
			if !placed {
				nextTrack++
				place(c.id, nextTrack)
				lanes = append(lanes, lane{tid: nextTrack, end: c.start.Add(c.dur)})
			}
		}
	}
	place(0, 0)

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "predperf trace " + t.id},
	}}}
	for i := range spans {
		s := &spans[i]
		args := map[string]any{"span": s.id}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		for k := 0; k+1 < len(s.args); k += 2 {
			args[s.args[k]] = s.args[k+1]
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.name,
			Ph:   "X",
			TS:   float64(s.start.Sub(t.start).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  track[s.id],
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: writing chrome trace: %w", err)
	}
	return nil
}
