package obs

import (
	"cmp"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"predperf/internal/wirejson"
)

// Cross-process trace propagation, W3C trace-context style. A caller
// that is recording a trace injects TraceparentHeader on outbound
// requests (trace ID, parent span ID, sampling bit); the callee makes
// no sampling decision of its own — the bit minted at the edge rides
// every hop, so one request is either traced everywhere or nowhere.
// The callee records its spans in a local Trace and ships the completed
// forest back to the caller (WireSpan, Export), which grafts it under
// the hop's client span (Graft) after shifting remote clocks onto the
// local timeline (ClockOffset).

// TraceparentHeader carries "version-traceid-spanid-flags" across
// process hops, e.g. "00-8f3a…-000000000000002a-01". The trace ID is a
// request ID (ValidRequestID charset, which may itself contain dashes),
// so the span-ID and flags fields are parsed from the right.
const TraceparentHeader = "Traceparent"

// SpanTrailerHeader is the HTTP trailer on which every role — a
// predserve shard, a simworker, the router — returns its span forest to
// a caller that sampled the hop: a trailer, not a body field, so the
// body stays byte-identical with tracing on or off, and a router relays
// it as is.
const SpanTrailerHeader = "X-Trace-Spans"

// MaxSpanTrailerBytes bounds the X-Trace-Spans value, an EncodeSpans
// token. Go's HTTP client refuses a whole response whose trailer
// section does not fit its read buffer (Transport.ReadBufferSize, 4 KiB
// by default), and that section is the field name, ": ", the value, the
// line end and the blank line that ends it.
const MaxSpanTrailerBytes = 4<<10 - len(SpanTrailerHeader+": \r\n\r\n")

// DroppedSpans names the zero-length span that ends a forest cut to fit
// MaxSpanTrailerBytes; its "dropped" arg counts the spans left out.
const DroppedSpans = "obs.spans_dropped"

// traceparentSampled is the flags bit marking a sampled trace.
const traceparentSampled = 0x01

// SpanContext is the propagated identity of one hop: which trace the
// request belongs to, which span on the caller is its parent, and
// whether the edge decided to record it.
type SpanContext struct {
	TraceID  string
	ParentID int64
	Sampled  bool
}

// FormatTraceparent renders sc as a traceparent header value.
func FormatTraceparent(sc SpanContext) string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-%016x-%s", sc.TraceID, uint64(sc.ParentID), flags)
}

// ParseTraceparent parses a traceparent header value. Because the trace
// ID may contain dashes (it is a request ID, not a fixed-width hex
// field), the span-ID and flags fields are located from the right.
func ParseTraceparent(s string) (SpanContext, bool) {
	if !strings.HasPrefix(s, "00-") {
		return SpanContext{}, false
	}
	rest := s[3:]
	i := strings.LastIndexByte(rest, '-')
	if i < 0 {
		return SpanContext{}, false
	}
	j := strings.LastIndexByte(rest[:i], '-')
	if j < 0 {
		return SpanContext{}, false
	}
	traceID, spanHex, flagsHex := rest[:j], rest[j+1:i], rest[i+1:]
	if !ValidRequestID(traceID) || len(spanHex) != 16 || len(flagsHex) != 2 {
		return SpanContext{}, false
	}
	spanID, err := strconv.ParseUint(spanHex, 16, 64)
	if err != nil {
		return SpanContext{}, false
	}
	flags, err := strconv.ParseUint(flagsHex, 16, 8)
	if err != nil {
		return SpanContext{}, false
	}
	return SpanContext{
		TraceID:  traceID,
		ParentID: int64(spanID),
		Sampled:  flags&traceparentSampled != 0,
	}, true
}

// ValidRequestID reports whether a client-supplied request ID is safe
// to echo into response headers, access logs, trace IDs, and the
// traceparent header: 1–64 characters of [A-Za-z0-9._-]. Anything else
// is replaced with a generated ID rather than reflected.
func ValidRequestID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Sampler is the edge's head-sampling decision: FNV-64a of the request
// ID against a rate threshold, so the same request ID samples
// identically on every replica and retries of one request are all
// traced or all not. The hash is fixed and the threshold is monotone in
// the rate, so any request sampled at rate r is also sampled at every
// rate above r.
type Sampler struct {
	threshold uint64
}

// NewSampler builds a sampler keeping the given fraction of requests
// (rate >= 1 keeps everything, rate <= 0 keeps nothing).
func NewSampler(rate float64) Sampler {
	return Sampler{threshold: sampleThreshold(rate)}
}

// sampleThreshold maps a keep-fraction to the hash-space threshold.
func sampleThreshold(rate float64) uint64 {
	switch {
	case rate >= 1:
		return math.MaxUint64
	case rate <= 0:
		return 0
	default:
		return uint64(rate * float64(math.MaxUint64))
	}
}

// Sample decides whether the request with this ID is traced.
func (s Sampler) Sample(id string) bool {
	return sampleHit(id, s.threshold)
}

// sampleHit is the sampling decision: FNV-64a of the request ID against
// a threshold.
func sampleHit(id string, threshold uint64) bool {
	switch threshold {
	case math.MaxUint64:
		return true
	case 0:
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64() < threshold
}

// Rate reports the fraction of requests this sampler keeps.
func (s Sampler) Rate() float64 {
	switch s.threshold {
	case math.MaxUint64:
		return 1
	case 0:
		return 0
	}
	return float64(s.threshold) / float64(math.MaxUint64)
}

// WithRequestID stamps the request's identity on the context. Unlike a
// Trace it is attached to every request, sampled or not, so outbound
// hops can forward one identity (and an unsampled traceparent that
// suppresses downstream trace allocation) without allocating anything.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the ID set by WithRequestID, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// SpanIDFrom returns the span ID the context is currently inside (the
// ID StartSpanCtx assigned), or 0 outside any span. It is the parent-ID
// field of an outbound traceparent header.
func SpanIDFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanIDKey).(int64)
	return id
}

// StartSpanArgs is StartSpanCtx with late annotations: the returned end
// function accepts extra key/value pairs determined only at completion
// (outcome, per-hop clock offset). The kv
// arguments given up front are recorded too.
func StartSpanArgs(ctx context.Context, name string, kv ...string) (context.Context, func(extra ...string)) {
	tr := TraceFrom(ctx)
	if tr == nil {
		if !enabled.Load() {
			return ctx, func(...string) {}
		}
		s := span(name)
		t0 := time.Now()
		return ctx, func(...string) { s.record(time.Since(t0)) }
	}
	var s *spanStats
	if enabled.Load() {
		s = span(name)
	}
	parent, _ := ctx.Value(spanIDKey).(int64)
	id := tr.nextID.Add(1)
	ctx = context.WithValue(ctx, spanIDKey, id)
	t0 := time.Now()
	return ctx, func(extra ...string) {
		d := time.Since(t0)
		if s != nil {
			s.record(d)
		}
		args := kv
		if len(extra) > 0 {
			args = make([]string, 0, len(kv)+len(extra))
			args = append(append(args, kv...), extra...)
		}
		tr.record(traceSpan{id: id, parent: parent, name: name, start: t0, dur: d, args: args})
	}
}

// WireSpan is one completed span on the wire: the JSON shape of the
// forest a callee returns on the X-Trace-Spans trailer (EncodeSpans).
// IDs are trace-local; Graft remaps them into the caller's trace. Field
// names are short because hundreds ride on one response.
type WireSpan struct {
	ID     int64    `json:"i"`
	Parent int64    `json:"p,omitempty"`
	Name   string   `json:"n"`
	Start  int64    `json:"s"` // unix nanoseconds, callee's clock
	Dur    int64    `json:"d"` // nanoseconds
	Args   []string `json:"a,omitempty"`
}

// Export snapshots the completed spans (earliest-completed first) as
// wire spans for the return hop.
func (t *Trace) Export() []WireSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]WireSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = WireSpan{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start.UnixNano(), Dur: int64(s.dur), Args: s.args,
		}
	}
	return out
}

// Graft merges a remote span forest into the trace: each remote span
// gets a local ID of its own, remote roots (and spans whose parent was
// truncated away) are parented under the given hop span, and every start
// time is shifted by offset so the remote lane lines up with the local
// timeline in one Chrome export.
//
// A trace allocates a span's ID when the span starts, so a parent's ID
// is always below its children's. Graft keeps that order in the local
// IDs it gives out, and keeps a remote parent link only when it points
// to a lower remote ID (the first span with that ID, if the forest
// repeats one); any other span hangs under the hop span. So a hostile
// forest, with repeated IDs or a cycle, still grafts as a tree, and no
// span becomes its own ancestor.
func (t *Trace) Graft(parent int64, spans []WireSpan, offset time.Duration) {
	if len(spans) == 0 {
		return
	}
	// byID lists the spans' indices by remote ID; a span's local ID is
	// base plus its rank there.
	order := make([]int, 2*len(spans))
	byID, rank := order[:len(spans)], order[len(spans):]
	for i := range byID {
		byID[i] = i
	}
	slices.SortStableFunc(byID, func(a, b int) int { return cmp.Compare(spans[a].ID, spans[b].ID) })
	for r, i := range byID {
		rank[i] = r
	}
	base := t.nextID.Add(int64(len(spans))) - int64(len(spans)) + 1
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range spans {
		p := parent
		if s.Parent != 0 && s.Parent < s.ID {
			if r, ok := slices.BinarySearchFunc(byID, s.Parent, func(i int, id int64) int {
				return cmp.Compare(spans[i].ID, id)
			}); ok {
				p = base + int64(r)
			}
		}
		t.spans = append(t.spans, traceSpan{
			id:     base + int64(rank[i]),
			parent: p,
			name:   s.Name,
			start:  time.Unix(0, s.Start).Add(offset),
			dur:    time.Duration(s.Dur),
			args:   s.Args,
		})
	}
}

// ClockOffset estimates the shift from the callee's clock to the
// caller's for one hop, assuming the remote work sat centered in the
// round trip: sentAt plus half the network residual (rtt minus the
// remote span extent) is where the earliest remote span belongs on the
// local timeline. Wrong by up to half the one-way network latency —
// fine for lining up lanes in a timeline, not a clock-sync protocol.
func ClockOffset(sentAt time.Time, rtt time.Duration, spans []WireSpan) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	minStart, maxEnd := spans[0].Start, spans[0].Start+spans[0].Dur
	for _, s := range spans[1:] {
		if s.Start < minStart {
			minStart = s.Start
		}
		if end := s.Start + s.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	remote := time.Duration(maxEnd - minStart)
	if remote > rtt {
		remote = rtt
	}
	return sentAt.Add((rtt - remote) / 2).Sub(time.Unix(0, minStart))
}

// EncodeSpans renders a span forest as a single header-safe token
// (base64 of JSON) for the X-Trace-Spans trailer, at most
// MaxSpanTrailerBytes long. A forest past the bound is cut to its
// longest prefix that fits with a last DroppedSpans span, which starts
// where the first span left out did and counts those spans. The JSON
// is json.Marshal's bytes: appendWireSpan's hand-written copy, or
// json.Marshal itself for a span with a string it would escape.
func EncodeSpans(spans []WireSpan) string {
	if len(spans) == 0 {
		return ""
	}
	limit := base64.StdEncoding.DecodedLen(MaxSpanTrailerBytes)
	var buf [512]byte // a routed prediction's forest fits, so the JSON stays on the stack
	raw := append(buf[:0], '[')
	n := 0
	for ; n < len(spans); n++ {
		mark := len(raw)
		if n > 0 {
			raw = append(raw, ',')
		}
		if raw = appendWireSpan(raw, spans[n]); len(raw)+1 > limit {
			raw = raw[:mark]
			break
		}
	}
	// Cut spans off the end until the drop marker fits after the rest.
	for n < len(spans) {
		marker := droppedMarker(spans, n)
		if m := appendWireSpan(nil, marker); len(raw)+min(n, 1)+len(m)+1 <= limit {
			if n > 0 {
				raw = append(raw, ',')
			}
			raw = append(raw, m...)
			break
		}
		n--
		raw = raw[:len(raw)-len(appendWireSpan(nil, spans[n]))]
		if n > 0 {
			raw = raw[:len(raw)-1] // the comma before the span cut
		}
	}
	return base64.StdEncoding.EncodeToString(append(raw, ']'))
}

// droppedMarker is the DroppedSpans span that ends spans cut to its
// first n: its ID follows theirs, and it starts where spans[n] did.
func droppedMarker(spans []WireSpan, n int) WireSpan {
	var id int64
	for _, s := range spans[:n] {
		id = max(id, s.ID)
	}
	return WireSpan{
		ID: id + 1, Name: DroppedSpans, Start: spans[n].Start,
		Args: []string{"dropped", strconv.Itoa(len(spans) - n)},
	}
}

// DecodeSpans parses an EncodeSpans token, refusing one longer than
// MaxSpanTrailerBytes. A forest in the canonical shape EncodeSpans
// writes is decoded by hand, to what json.Unmarshal decodes; anything
// else goes through json.Unmarshal.
func DecodeSpans(s string) ([]WireSpan, error) {
	if s == "" {
		return nil, nil
	}
	if len(s) > MaxSpanTrailerBytes {
		return nil, fmt.Errorf("obs: span trailer exceeds %d bytes", MaxSpanTrailerBytes)
	}
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("obs: decoding span header: %w", err)
	}
	spans, ok := decodeWireSpans(raw)
	if !ok {
		spans = nil
		if err := json.Unmarshal(raw, &spans); err != nil {
			return nil, fmt.Errorf("obs: parsing span header: %w", err)
		}
	}
	return spans, nil
}

// appendWireSpan appends s exactly as json.Marshal writes it.
func appendWireSpan(dst []byte, s WireSpan) []byte {
	if !wirejson.Plain(s.Name) || slices.ContainsFunc(s.Args, func(a string) bool { return !wirejson.Plain(a) }) {
		// A WireSpan holds only integers and strings, so it always
		// marshals.
		b, _ := json.Marshal(s)
		return append(dst, b...)
	}
	dst = append(dst, `{"i":`...)
	dst = wirejson.AppendInt(dst, s.ID)
	if s.Parent != 0 {
		dst = append(dst, `,"p":`...)
		dst = wirejson.AppendInt(dst, s.Parent)
	}
	dst = append(dst, `,"n":`...)
	dst = wirejson.AppendString(dst, s.Name)
	dst = append(dst, `,"s":`...)
	dst = wirejson.AppendInt(dst, s.Start)
	dst = append(dst, `,"d":`...)
	dst = wirejson.AppendInt(dst, s.Dur)
	if len(s.Args) > 0 {
		dst = append(dst, `,"a":[`...)
		for k, a := range s.Args {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = wirejson.AppendString(dst, a)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// wireSpanKeys are WireSpan's JSON keys; a key's index is its bit in a
// span's seen-set.
const wireSpanKeys = "ipnsda"

// decodeWireSpans decodes the canonical shape of a span forest: an
// array of objects with WireSpan's exact keys, none repeated, integers
// for "i", "p", "s" and "d", and plain strings for "n" and the "a"
// array. It reports false for anything else.
func decodeWireSpans(raw []byte) ([]WireSpan, bool) {
	s := wirejson.Scan(raw)
	spans := []WireSpan{} // as json.Unmarshal decodes [], empty and non-nil
	s.Byte('[')
	for n := 0; s.Next(']', n); n++ {
		var w WireSpan
		var seen uint8
		s.Byte('{')
		for m := 0; s.Next('}', m); m++ {
			k := s.Key()
			bit := -1
			if len(k) == 1 {
				bit = strings.IndexByte(wireSpanKeys, k[0])
			}
			if bit < 0 || seen&(1<<bit) != 0 {
				return nil, false
			}
			seen |= 1 << bit
			switch k[0] {
			case 'i':
				w.ID = s.Int64()
			case 'p':
				w.Parent = s.Int64()
			case 'n':
				w.Name = string(s.String())
			case 's':
				w.Start = s.Int64()
			case 'd':
				w.Dur = s.Int64()
			case 'a':
				w.Args = []string{}
				s.Byte('[')
				for a := 0; s.Next(']', a); a++ {
					w.Args = append(w.Args, string(s.String()))
				}
			}
		}
		spans = append(spans, w)
	}
	return spans, s.End()
}
